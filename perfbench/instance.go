package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"maybms"
	"maybms/client"
	"maybms/internal/server"
)

// instance is one running copy of the system under test: a database
// built for the workload and the HTTP server in front of it on a
// loopback listener.
type instance struct {
	db     *maybms.DB
	srv    *server.Server
	hs     *http.Server
	url    string
	dir    string        // the disk engine's data directory; "" on the memory engine
	served chan struct{} // closed once Serve has returned
}

// startInstance builds the workload's database and starts serving it.
// dir is the data directory for a durable workload; it must not exist.
func startInstance(w *workload, sz sizes, seed int64, dir string) (*instance, error) {
	opts := maybms.Options{Seed: seed}
	if w.durable {
		opts.DataDir, opts.Fsync = dir, true
	}
	db, err := maybms.OpenDurable(opts)
	if err != nil {
		return nil, err
	}
	if err := w.build(db, sz); err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	in := &instance{
		db:     db,
		srv:    server.New(db, server.Options{}),
		url:    "http://" + ln.Addr().String(),
		dir:    opts.DataDir,
		served: make(chan struct{}),
	}
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() {
		defer close(in.served)
		in.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	// The server is ready once it has answered a session round trip.
	c, err := client.Open(in.url)
	if err == nil {
		err = c.Close()
	}
	if err != nil {
		in.stop()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	return in, nil
}

// stop shuts the server down and closes the database (a checkpoint on
// the disk engine). It returns once the serving goroutine has ended.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	<-in.served
	in.srv.Close()
	return errors.Join(err, in.db.Close())
}

// Setup runs at least minSetups times and, while the setups together
// took under minSetupTime, up to maxSetups times, so a setup of a few
// milliseconds is repeated enough for a steady median.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 2 * time.Second
)

// setup builds and starts the workload's instance several times,
// keeping the last one running; every earlier one is stopped and its
// data removed. It reports the median time one setup took.
func setup(w *workload, sz sizes, seed int64, dataRoot string) (*instance, float64, error) {
	var times []float64
	var total time.Duration
	for i := 0; ; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(dataRoot, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		}
		start := time.Now()
		in, err := startInstance(w, sz, seed, dir)
		if err != nil {
			return nil, 0, err
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		total += took
		if i+1 == maxSetups || i+1 >= minSetups && total >= minSetupTime {
			return in, median(times), nil
		}
		if err := in.stop(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// computeReferences answers every distinct request of the pool once in
// process, serially and untraced; every later answer is checked
// against these.
func computeReferences(db *maybms.DB, pool []*op) error {
	prev := db.Parallelism()
	db.SetParallelism(1)
	defer db.SetParallelism(prev)
	for _, o := range pool {
		rows, err := db.Query(o.refSQL)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", o.refSQL, err)
		}
		o.setReference(rows)
	}
	return nil
}

// verifyLedger reopens the disk engine's data directory and requires
// every balance to equal the ledger of acknowledged commits, with the
// balances summing to 0.
func verifyLedger(dir string, led *ledger, accts int) error {
	db, err := maybms.OpenDurable(maybms.Options{DataDir: dir})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", dir, err)
	}
	defer db.Close()
	rows, err := db.Query("select k, v from acct order by k")
	if err != nil {
		return err
	}
	if len(rows.Data) != accts {
		return fmt.Errorf("%w: %d accounts after reopen, want %d", errWrong, len(rows.Data), accts)
	}
	var sum int64
	for i, row := range rows.Data {
		k, kok := row[0].(int64)
		v, vok := row[1].(int64)
		if !kok || !vok || k != int64(i) || v != led.bal[i] {
			return fmt.Errorf("%w: account row %v after reopen, ledger says %d", errWrong, row, led.bal[i])
		}
		sum += v
	}
	if sum != 0 {
		return fmt.Errorf("%w: balances sum to %d after reopen", errWrong, sum)
	}
	return nil
}
