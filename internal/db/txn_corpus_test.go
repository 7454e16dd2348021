package db

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"maybms/internal/sql"
)

// The generative concurrency-correctness harness. N concurrent
// sessions run seeded, randomized transactions — shared-row updates,
// private-table DML, weight-table inserts, repair-key world-set
// allocation — against one engine. Each session records every
// transaction's statements; commits that published effects record the
// engine's commit sequence number. Afterwards the committed history is
// replayed serially, in commit order, on a fresh database: snapshot
// isolation with first-committer-wins validation promises the final
// states are byte-identical (the workload is restricted to
// replay-deterministic statements: exact-key blind writes, per-session
// private tables, and repair-key over a table guarded by read
// claims — so commit order fully determines the outcome).

// runTxnSQL parses src and runs each statement inside txn.
func runTxnSQL(d *Database, txn *Txn, src string) error {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, _, err := d.RunStatementMeta(s, nil, QueryMeta{SQL: src, Txn: txn}); err != nil {
			return err
		}
	}
	return nil
}

// txnWorkloadSetup creates the harness tables: nSessions private
// tables, the shared fixed-key table, and the weight table repair-key
// reads.
func txnWorkloadSetup(t *testing.T, d *Database, nSessions int) {
	t.Helper()
	mustRun(t, d, `create table shared (k int, v int)`)
	for k := 0; k < 8; k++ {
		mustRun(t, d, fmt.Sprintf(`insert into shared values (%d, 0)`, k))
	}
	mustRun(t, d, `create table w (k text, wt float)`)
	mustRun(t, d, `insert into w values ('a', 1), ('a', 2), ('b', 3)`)
	for i := 0; i < nSessions; i++ {
		mustRun(t, d, fmt.Sprintf(`create table p%d (x int, v int)`, i))
	}
}

// txnGen generates one session's randomized transactions.
type txnGen struct {
	r    *rand.Rand
	sess int
	next int // monotone private-table key counter
}

// txn emits the statements of one randomized transaction.
func (g *txnGen) txn() []string {
	n := 1 + g.r.Intn(4)
	stmts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch p := g.r.Intn(20); {
		case p < 8: // shared-row blind update: the conflict driver
			stmts = append(stmts, fmt.Sprintf(
				`update shared set v = %d where k = %d`, g.r.Intn(1000), g.r.Intn(8)))
		case p < 12: // private insert with a fresh exact key
			g.next++
			stmts = append(stmts, fmt.Sprintf(
				`insert into p%d values (%d, %d)`, g.sess, g.next, g.r.Intn(1000)))
		case p < 15: // private exact-key update (0 rows is fine)
			stmts = append(stmts, fmt.Sprintf(
				`update p%d set v = %d where x = %d`, g.sess, g.r.Intn(1000), 1+g.r.Intn(g.next+1)))
		case p < 17: // private exact-key delete
			stmts = append(stmts, fmt.Sprintf(
				`delete from p%d where x = %d`, g.sess, 1+g.r.Intn(g.next+1)))
		case p < 18: // in-transaction read: no claims, just coverage
			stmts = append(stmts, `select count(*) from shared`)
		case p < 19: // rare weight-table insert
			g.next++
			stmts = append(stmts, fmt.Sprintf(
				`insert into w values ('s%d_%d', %d)`, g.sess, g.next, 1+g.r.Intn(4)))
		default: // rare repair-key: allocates world-set variables,
			// read-claims w (conflicts with concurrent w inserts)
			g.next++
			stmts = append(stmts, fmt.Sprintf(
				`create table rk_%d_%d as select k from (repair key k in w weight by wt) x`,
				g.sess, g.next))
		}
	}
	return stmts
}

// committedTxn is one committed transaction of the recorded history.
type committedTxn struct {
	seq   int64
	stmts []string
}

// barrier is a reusable rendezvous of n goroutines: Wait returns once
// all n have called it, then the barrier resets for the next round.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	round int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// runTxnWorkload drives nSessions concurrent goroutines of seeded
// transactions against d and returns the committed history (sorted by
// engine commit sequence) plus the observed conflict count.
//
// Sessions run in lockstep rounds: every session finishes its previous
// transaction, then every session BEGINs, and only then does any run
// its statements and COMMIT. So each round's transactions share one
// snapshot generation and overlap pairwise, whatever the scheduler
// does; which of them conflict is then a function of the seed (shared
// keys written in the same round), not of goroutine timing. Statements
// and commits within a round still race freely.
func runTxnWorkload(t *testing.T, d *Database, nSessions, txnsPerSession int, seed int64) ([]committedTxn, int64) {
	t.Helper()
	var mu sync.Mutex
	var committed []committedTxn
	var conflicts int64
	var wg sync.WaitGroup
	round := newBarrier(nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			g := &txnGen{r: rand.New(rand.NewSource(seed + int64(sess))), sess: sess}
			for n := 0; n < txnsPerSession; n++ {
				stmts := g.txn()
				round.Wait() // the previous round has fully finished
				txn := d.Begin()
				round.Wait() // every session holds this round's snapshot
				ok := true
				for _, src := range stmts {
					// Yield so the round's transactions also
					// interleave statement by statement, not just
					// at BEGIN.
					runtime.Gosched()
					if err := runTxnSQL(d, txn, src); err != nil {
						t.Errorf("session %d txn %d: %q: %v", sess, n, src, err)
						ok = false
						break
					}
				}
				runtime.Gosched()
				if !ok || g.r.Intn(10) == 0 {
					txn.Rollback()
					continue
				}
				if err := txn.Commit(); err != nil {
					if !IsConflict(err) {
						t.Errorf("session %d txn %d: commit: %v", sess, n, err)
						continue
					}
					mu.Lock()
					conflicts++
					mu.Unlock()
					continue
				}
				if txn.commitSeq == 0 {
					continue // published nothing; replay has nothing to do
				}
				mu.Lock()
				committed = append(committed, committedTxn{seq: txn.commitSeq, stmts: stmts})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Sort by engine commit order (insertion sort; histories are small).
	for i := 1; i < len(committed); i++ {
		for j := i; j > 0 && committed[j].seq < committed[j-1].seq; j-- {
			committed[j], committed[j-1] = committed[j-1], committed[j]
		}
	}
	return committed, conflicts
}

// replayHistory re-executes the committed history serially, in commit
// order, on a fresh database.
func replayHistory(t *testing.T, d *Database, history []committedTxn) {
	t.Helper()
	for i, ct := range history {
		txn := d.Begin()
		for _, src := range ct.stmts {
			if err := runTxnSQL(d, txn, src); err != nil {
				t.Fatalf("replay txn %d (seq %d): %q: %v", i, ct.seq, src, err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("replay txn %d (seq %d): serial commit cannot conflict: %v", i, ct.seq, err)
		}
	}
}

// TestTxnCorpusSerialReplay is the headline harness: both engines, at
// 1, 2, 4, and 8 concurrent sessions, under the race detector in CI.
// The concurrent run's final state — every table's rows and lineage in
// heap order, plus the world-set domains — must be byte-identical to a
// serial replay of exactly the committed transactions in commit order.
func TestTxnCorpusSerialReplay(t *testing.T) {
	const txnsPerSession = 25
	for _, engine := range []string{"memory", "disk"} {
		for _, sessions := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/sessions=%d", engine, sessions), func(t *testing.T) {
				open := func() *Database {
					if engine == "memory" {
						return New()
					}
					d, err := Open(Options{DataDir: t.TempDir()})
					if err != nil {
						t.Fatalf("open disk engine: %v", err)
					}
					t.Cleanup(func() { d.Close() })
					return d
				}
				seed := int64(20090800 + sessions)

				d := open()
				txnWorkloadSetup(t, d, sessions)
				history, conflicts := runTxnWorkload(t, d, sessions, txnsPerSession, seed)
				t.Logf("%d committed, %d conflicts", len(history), conflicts)
				if t.Failed() {
					t.FailNow()
				}
				if sessions > 1 && conflicts == 0 {
					t.Errorf("%d sessions over 8 shared keys produced no conflicts — validation not exercised", sessions)
				}
				if sessions == 1 && conflicts != 0 {
					t.Errorf("a single session cannot conflict with itself, got %d", conflicts)
				}
				if n := d.TxnStats().Active; n != 0 {
					t.Fatalf("%d transactions still active after the workload", n)
				}
				if n := d.SnapshotsOpen(); n != 0 {
					t.Fatalf("%d snapshots still open after the workload", n)
				}
				got := databaseState(t, d)

				ref := open()
				txnWorkloadSetup(t, ref, sessions)
				replayHistory(t, ref, history)
				want := databaseState(t, ref)

				if got != want {
					t.Fatalf("concurrent state diverged from serial replay of its committed history (%d txns, %d conflicts)\n got: %.600s\nwant: %.600s",
						len(history), conflicts, got, want)
				}
			})
		}
	}
}

// TestTxnCrashInFlightVanish: transactions buffer writes privately and
// touch the WAL only at commit, so a crash with transactions open
// recovers exactly the committed state — the in-flight transactions
// vanish atomically, leaving no partial effects.
func TestTxnCrashInFlightVanish(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{DataDir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	txnWorkloadSetup(t, d, 2)
	history, _ := runTxnWorkload(t, d, 2, 10, 42)
	if len(history) == 0 {
		t.Fatal("workload committed nothing")
	}

	// Open transactions with buffered writes of every flavor — plain
	// DML, DDL, and world-set allocation — all unpublished.
	t1 := d.Begin()
	for _, src := range []string{
		`insert into p0 values (1000, 1)`,
		`update shared set v = 999 where k = 0`,
		`create table doomed as select k from (repair key k in w weight by wt) x`,
	} {
		if err := runTxnSQL(d, t1, src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	t2 := d.Begin()
	if err := runTxnSQL(d, t2, `delete from shared where k = 3`); err != nil {
		t.Fatal(err)
	}

	want := databaseState(t, d) // committed state only: buffers are private

	// Crash image taken with both transactions still in flight.
	wreck := filepath.Join(t.TempDir(), "wreck")
	copyDir(t, dir, wreck)
	re, err := Open(Options{DataDir: wreck})
	if err != nil {
		t.Fatalf("reopen after crash with open transactions: %v", err)
	}
	defer re.Close()
	if got := databaseState(t, re); got != want {
		t.Fatalf("in-flight transactions leaked into the recovered state:\n got: %.600s\nwant: %.600s", got, want)
	}
	t1.Rollback()
	t2.Rollback()
}

// TestTxnCrashMidCommitAtomic cuts the WAL at randomized points inside
// and around two transactions' commit batches: every recovered state
// must be exactly one of {before txn1, after txn1, after txn2} — a
// commit's WAL batch applies fully or not at all.
func TestTxnCrashMidCommitAtomic(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{DataDir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustRun(t, d, `create table a (x int, y text)`)
	mustRun(t, d, `insert into a values (1, 'one'), (2, 'two')`)
	mustRun(t, d, `create table w (k text, wt float)`)
	mustRun(t, d, `insert into w values ('p', 1.0), ('p', 3.0), ('q', 2.0)`)
	// Checkpoint: the setup moves into segments and the WAL rotates, so
	// every cut below lands inside (or between) the two transactions'
	// commit batches, never mid-setup.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	states := []string{databaseState(t, d)}

	// Two committed transactions, each a multi-statement WAL batch
	// (DML plus world-set allocation) written during commit replay.
	txn := d.Begin()
	for _, src := range []string{
		`insert into a values (10, 'txn1'), (11, 'txn1')`,
		`update a set y = 'ONE' where x = 1`,
		`create table r1 as select k from (repair key k in w weight by wt) x`,
	} {
		if err := runTxnSQL(d, txn, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	states = append(states, databaseState(t, d))

	txn = d.Begin()
	for _, src := range []string{
		`delete from a where x = 2`,
		`insert into a values (20, 'txn2')`,
	} {
		if err := runTxnSQL(d, txn, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	states = append(states, databaseState(t, d))

	pristine := filepath.Join(t.TempDir(), "pristine")
	copyDir(t, dir, pristine)
	fi, err := os.Stat(findWAL(t, pristine))
	if err != nil {
		t.Fatal(err)
	}
	walSize := fi.Size()
	const walHeader = 15

	rng := rand.New(rand.NewSource(808))
	recovered := map[int]bool{}
	for trial := 0; trial < 40; trial++ {
		wreck := filepath.Join(t.TempDir(), "wreck")
		copyDir(t, pristine, wreck)
		cut := walHeader + rng.Int63n(walSize-walHeader+1)
		if trial%8 == 0 {
			// An exact-size "cut": the crash happened after the last
			// fsync, so recovery must replay both batches in full.
			cut = walSize
		}
		if err := os.Truncate(findWAL(t, wreck), cut); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{DataDir: wreck})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		got := databaseState(t, re)
		re.Close()
		idx := -1
		for i, s := range states {
			if got == s {
				idx = i
				break
			}
		}
		if idx == -1 {
			t.Fatalf("trial %d (cut %d/%d): recovered state is not a committed-transaction prefix:\n%.600s",
				trial, cut, walSize, got)
		}
		recovered[idx] = true
	}
	// The cuts must land inside both commit batches, not collapse onto
	// one outcome.
	if len(recovered) < 3 {
		t.Fatalf("crash trials recovered only %d distinct states of %d — commit batches not exercised", len(recovered), len(states))
	}
}
