package lineage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"maybms/internal/ws"
)

// referenceKey is the original fmt-based Cond.Key, kept as the oracle
// for appendKey.
func referenceKey(c Cond) string {
	var b strings.Builder
	for i, l := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", l.Var, l.Val)
	}
	return b.String()
}

// referenceSimplify is the original quadratic DNF.Simplify, kept
// verbatim (over referenceKey) as the oracle for the indexed one: the
// new Simplify must return the same clauses, in the same order, with
// the same nil-ness.
func referenceSimplify(d DNF) DNF {
	if len(d) == 0 {
		return nil
	}
	// Deduplicate by key.
	uniq := make(DNF, 0, len(d))
	seen := map[string]bool{}
	for _, c := range d {
		k := referenceKey(c)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, c.Clone())
		}
	}
	// Absorption: drop clauses strictly implied by a shorter clause.
	sort.Slice(uniq, func(i, j int) bool { return len(uniq[i]) < len(uniq[j]) })
	out := make(DNF, 0, len(uniq))
	for _, c := range uniq {
		absorbed := false
		for _, kept := range out {
			if kept.Subsumes(c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return referenceKey(out[i]) < referenceKey(out[j]) })
	return out
}

// fuzzVars bounds the variables a decoded DNF mentions, so every
// assignment can be enumerated.
const fuzzVars = 6

// decodeDNF turns bytes into a small DNF of normalised clauses over at
// most fuzzVars variables with domains of 3: per clause, one header
// byte (width 0..3; an empty clause is nil or Cond{} by one bit), then
// one byte per literal. Inconsistent clauses are skipped.
func decodeDNF(data []byte) DNF {
	var d DNF
	for len(data) > 0 && len(d) < 64 {
		h := data[0]
		data = data[1:]
		w := int(h % 4)
		if w > len(data) {
			w = len(data)
		}
		lits := make([]Lit, w)
		for i := range lits {
			b := int(data[i])
			lits[i] = Lit{Var: ws.VarID(b % fuzzVars), Val: 1 + (b/fuzzVars)%3}
		}
		data = data[w:]
		c, ok := NewCond(lits...)
		if !ok {
			continue
		}
		if c == nil && h&0x80 != 0 {
			c = Cond{}
		}
		d = append(d, c)
	}
	return d
}

// checkSimplify asserts the new Simplify equals the reference, and that
// both denote d's event under every assignment of its variables.
func checkSimplify(t *testing.T, d DNF) {
	t.Helper()
	in := d.Clone()
	got, want := d.Simplify(), referenceSimplify(d)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Simplify(%v)\n got: %#v\nwant: %#v", d, got, want)
	}
	if len(d) > 0 && !reflect.DeepEqual(d, in) {
		t.Fatalf("Simplify mutated its input: %v, was %v", d, in)
	}
	for _, c := range d {
		if c.Key() != referenceKey(c) {
			t.Fatalf("Key(%v) = %q, want %q", c, c.Key(), referenceKey(c))
		}
	}
	vars := d.Vars()
	if len(vars) > fuzzVars {
		return
	}
	assign := map[ws.VarID]int{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(vars) {
			e := d.Eval(assign)
			if got.Eval(assign) != e || want.Eval(assign) != e {
				t.Fatalf("event changed under %v: d=%v simplified=%v reference=%v",
					assign, e, got.Eval(assign), want.Eval(assign))
			}
			return
		}
		for v := 1; v <= 3; v++ {
			assign[vars[i]] = v
			walk(i + 1)
		}
	}
	walk(0)
}

func FuzzSimplify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 7})
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 0x80, 3, 3, 4, 5})
	f.Add([]byte{2, 6, 13, 2, 13, 6, 1, 20, 3, 1, 2, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSimplify(t, decodeDNF(data))
	})
}

// TestSimplifyMatchesReference runs the oracle comparison over seeded
// random DNFs, from the fuzz target's tiny ones up to lineage-sized
// ones with hundreds of clauses over many variables, where the
// first-literal index actually prunes.
func TestSimplifyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		data := make([]byte, r.Intn(48))
		r.Read(data)
		checkSimplify(t, decodeDNF(data))
	}
	for i := 0; i < 200; i++ {
		nVars, width := 2+r.Intn(40), 1+r.Intn(4)
		d := make(DNF, 0, 300)
		for n := r.Intn(300); len(d) < n; {
			lits := make([]Lit, 1+r.Intn(width))
			for j := range lits {
				lits[j] = Lit{Var: ws.VarID(r.Intn(nVars)), Val: 1 + r.Intn(3)}
			}
			if c, ok := NewCond(lits...); ok {
				d = append(d, c)
			}
		}
		checkSimplify(t, d)
	}
}
