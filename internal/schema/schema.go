// Package schema defines relation schemas and tuples: named, typed
// columns with optional relation qualifiers, plus the schema algebra
// (concatenation, projection, renaming) the planner uses.
package schema

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"maybms/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	// Rel is the (possibly aliased) relation name qualifying the
	// column; empty for computed columns.
	Rel string
	// Name is the attribute name.
	Name string
	// Kind is the attribute's SQL type.
	Kind types.Kind
}

// String renders the column as rel.name or name.
func (c Column) String() string {
	if c.Rel != "" {
		return c.Rel + "." + c.Name
	}
	return c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len reports the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Resolve finds the index of a column reference. rel may be empty, in
// which case the name alone must be unambiguous. Matching is
// case-insensitive, as in SQL.
func (s *Schema) Resolve(rel, name string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if rel != "" && !strings.EqualFold(c.Rel, rel) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", ref(rel, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown column %q", ref(rel, name))
	}
	return found, nil
}

func ref(rel, name string) string {
	if rel != "" {
		return rel + "." + name
	}
	return name
}

// Concat returns the schema of a cross product: s ++ o.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return &Schema{Cols: cols}
}

// Project returns a schema with the given column indexes, in order.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return &Schema{Cols: cols}
}

// WithRel returns a copy of the schema with every column's relation
// qualifier replaced by rel (used for FROM-clause aliases).
func (s *Schema) WithRel(rel string) *Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		c.Rel = rel
		cols[i] = c
	}
	return &Schema{Cols: cols}
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Cols))
	copy(cols, s.Cols)
	return &Schema{Cols: cols}
}

// String renders the schema as (a INT, b TEXT, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of values, positionally aligned with a Schema.
type Tuple []types.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns t ++ o as a fresh tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Project returns the sub-tuple at the given indexes.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Equal reports deep equality of two tuples, treating NULLs as equal
// to each other (grouping semantics, not SQL =).
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		a, b := t[i], o[i]
		if a.IsNull() != b.IsNull() {
			return false
		}
		if a.IsNull() {
			continue
		}
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// Key renders the tuple as a canonical string usable as a map key for
// grouping and duplicate elimination. NULLs group together.
func (t Tuple) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range t {
		if i > 0 {
			b = append(b, '\x1f')
		}
		if v.IsNull() {
			b = append(b, "\x00N"...)
			continue
		}
		switch v.Kind() {
		case types.KindText:
			b = append(b, "\x00T"...)
			b = append(b, v.Text()...)
		case types.KindBool:
			b = append(b, "\x00B"...)
			b = append(b, v.String()...)
		case types.KindInt:
			b = append(b, "\x00F"...)
			b = strconv.AppendInt(b, v.Int(), 10)
		default:
			b = append(b, "\x00F"...)
			b = appendFloatKey(b, v.Float())
		}
	}
	return string(b)
}

// appendFloatKey renders a FLOAT in the same form as an INT of equal
// value, so 2 and 2.0, and 0.0 and -0.0, share a key as Equal says
// they should; distinct INTs keep distinct keys even above 2^53. Any
// other float is fractional, out of int64 range or not finite, so its
// shortest 'g' form has a point, an exponent, NaN or Inf and cannot
// collide with an integer's; every NaN shares one key.
func appendFloatKey(b []byte, f float64) []byte {
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return strconv.AppendInt(b, int64(f), 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}
