package storage

import (
	"io"

	"maybms/internal/schema"
	"maybms/internal/urel"
)

// Sieve is a selection a stored-table scan runs in place, so that only
// the rows it keeps are copied into a batch. The scan reads its rows in
// windows of up to one batch of live rows and calls Sift once per
// window, including the final empty window that ends the scan.
type Sieve interface {
	// Sift refines sel, the ascending positions in rows of the
	// window's live rows, and returns the positions it keeps in order.
	// It may overwrite sel's backing array; rows is read-only. An
	// error ends the scan.
	Sift(rows []urel.Tuple, sel []int32) ([]int32, error)
}

// windowSource reads a stored row array one window at a time for a
// scanIter.
type windowSource interface {
	// window reads the next raw window of up to size live rows. It
	// appends their positions in the returned rows to sel; an empty
	// window means the rows are exhausted.
	window(sel []int32, size int) ([]urel.Tuple, []int32)
}

// scanIter is the one batched scan over stored rows, shared by the
// heap (live, snapshot and disk mirror) and the transaction overlay.
// It reads a window of up to size live rows, lets the sieve (if any)
// narrow the window's selection vector in place, and copies only the
// surviving tuple structs into an exactly sized batch. Windows with no
// survivor produce no batch. Batches never alias storage: tuples
// already handed out cannot be reached by later in-place row updates;
// the Data and Cond slices stay shared and immutable by convention.
type scanIter struct {
	src   windowSource
	sch   *schema.Schema
	size  int
	sieve Sieve
	sel   []int32
	done  bool
}

func newScanIter(src windowSource, sch *schema.Schema, size int, sieve Sieve) *scanIter {
	if size <= 0 {
		size = urel.DefaultBatchSize
	}
	return &scanIter{src: src, sch: sch, size: size, sieve: sieve}
}

func (it *scanIter) Sch() *schema.Schema { return it.sch }

func (it *scanIter) Next() (*urel.Batch, error) {
	for !it.done {
		rows, sel := it.src.window(it.sel[:0], it.size)
		it.sel = sel
		live := len(sel)
		if it.sieve != nil {
			var err error
			if sel, err = it.sieve.Sift(rows, sel); err != nil {
				it.done = true
				return nil, err
			}
		}
		if live == 0 {
			it.done = true
			break
		}
		if len(sel) == 0 {
			continue
		}
		out := make([]urel.Tuple, len(sel))
		for j, i := range sel {
			out[j] = rows[i]
		}
		return &urel.Batch{Tuples: out}, nil
	}
	return nil, io.EOF
}

func (it *scanIter) Close() error {
	it.done = true
	return nil
}

// heapWindows reads a captured row array in place, skipping
// tombstones: a window is the stretch of the array holding its live
// rows.
type heapWindows struct {
	rows []urel.Tuple
	dead []bool
	pos  int
}

func (h *heapWindows) window(sel []int32, size int) ([]urel.Tuple, []int32) {
	start := h.pos
	for ; h.pos < len(h.rows) && len(sel) < size; h.pos++ {
		if !h.dead[h.pos] {
			sel = append(sel, int32(h.pos-start))
		}
	}
	return h.rows[start:h.pos], sel
}

func newHeapScan(rows []urel.Tuple, dead []bool, sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	return newScanIter(&heapWindows{rows: rows, dead: dead}, sch, size, sieve)
}

// ScanRows returns a batched scan over a materialised row array with
// no tombstones, running sieve (nil keeps every row) exactly as a
// stored-table scan does. The batches never alias rows.
func ScanRows(rows []urel.Tuple, sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	return newHeapScan(rows, make([]bool, len(rows)), sch, size, sieve)
}
