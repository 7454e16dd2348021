// Package types implements the SQL value system used throughout the
// engine: nullable integers, floats, text, and booleans, together with
// the comparison, hashing, arithmetic, and formatting rules the parser,
// planner, and executor rely on.
package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the SQL types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the untyped NULL literal.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (SQL INT / INTEGER / BIGINT).
	KindInt
	// KindFloat is a 64-bit IEEE float (SQL FLOAT / DOUBLE / REAL).
	KindFloat
	// KindText is a variable-length string (SQL TEXT / VARCHAR).
	KindText
	// KindBool is a boolean (SQL BOOLEAN).
	KindBool
)

// String returns the SQL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName maps a SQL type name (case-insensitive) to a Kind.
// It accepts the common aliases PostgreSQL users expect.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "INT4", "INT8":
		return KindInt, true
	case "FLOAT", "DOUBLE", "REAL", "FLOAT8", "FLOAT4", "NUMERIC", "DECIMAL", "DOUBLE PRECISION":
		return KindFloat, true
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindText, true
	case "BOOL", "BOOLEAN":
		return KindBool, true
	default:
		return KindNull, false
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// The one 64-bit payload word i holds an INT, the IEEE-754 bits of a
// FLOAT, or 0/1 for a BOOL, which keeps a Value at 32 bytes; every
// stored row, batch and evaluation result is made of them.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; valid only when Kind()==KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload; valid only when Kind()==KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.i)) }

// Text returns the string payload; valid only when Kind()==KindText.
func (v Value) Text() string { return v.s }

// Bool returns the boolean payload; valid only when Kind()==KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// AsFloat converts numeric values to float64. It reports false for
// non-numeric or NULL values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64 (floats are truncated). It
// reports false for non-numeric or NULL values.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.Float()), true
	default:
		return 0, false
	}
}

// Truth evaluates the value in a boolean context using SQL three-valued
// logic collapsed to two: NULL and non-true are false.
func (v Value) Truth() bool {
	switch v.kind {
	case KindBool:
		return v.Bool()
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.Float() != 0
	default:
		return false
	}
}

// numeric reports whether the value is INT or FLOAT.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports SQL equality; NULL is not equal to anything, including
// NULL. Numeric values of different kinds compare by value.
func (v Value) Equal(o Value) bool {
	eq, ok := v.equalNullable(o)
	return ok && eq
}

// equalNullable returns (equal, known): known is false when either side
// is NULL.
func (v Value) equalNullable(o Value) (bool, bool) {
	if v.IsNull() || o.IsNull() {
		return false, false
	}
	if v.numeric() && o.numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i, true
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b, true
	}
	if v.kind != o.kind {
		return false, true
	}
	switch v.kind {
	case KindText:
		return v.s == o.s, true
	case KindBool:
		return v.Bool() == o.Bool(), true
	}
	return false, true
}

// Compare orders two values. NULL sorts before everything (useful for
// ORDER BY); numeric kinds are mutually comparable; otherwise values of
// different kinds order by kind. Returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.IsNull() && o.IsNull() {
		return 0
	}
	if v.IsNull() {
		return -1
	}
	if o.IsNull() {
		return 1
	}
	if v.numeric() && o.numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindText:
		return strings.Compare(v.s, o.s)
	case KindBool:
		switch {
		case !v.Bool() && o.Bool():
			return -1
		case v.Bool() && !o.Bool():
			return 1
		}
		return 0
	}
	return 0
}

// Hash returns a hash suitable for hash joins and hash aggregation.
// Values that are Equal hash identically (ints that equal floats hash
// as floats).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindInt:
		// Hash ints as floats when exactly representable so that
		// NewInt(2) and NewFloat(2.0) collide, matching Equal.
		writeFloatHash(h, float64(v.i))
	case KindFloat:
		writeFloatHash(h, v.Float())
	case KindText:
		h.Write([]byte{3})
		h.Write([]byte(v.s))
	case KindBool:
		if v.Bool() {
			h.Write([]byte{4, 1})
		} else {
			h.Write([]byte{4, 0})
		}
	}
	return h.Sum64()
}

func writeFloatHash(h interface{ Write([]byte) (int, error) }, f float64) {
	bits := math.Float64bits(f)
	if f == 0 { // normalise -0 and +0
		bits = 0
	}
	var buf [9]byte
	buf[0] = 2
	for i := 0; i < 8; i++ {
		buf[i+1] = byte(bits >> (8 * i))
	}
	h.Write(buf[:])
}

// String renders the value as it would appear in query output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (text quoted).
func (v Value) SQLLiteral() string {
	if v.kind == KindText {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Cast converts v to the target kind, following SQL cast rules.
func (v Value) Cast(k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.kind {
		case KindFloat:
			return NewInt(int64(v.Float())), nil
		case KindText:
			n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("cannot cast %q to INT", v.s)
			}
			return NewInt(n), nil
		case KindBool:
			if v.Bool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return NewFloat(float64(v.i)), nil
		case KindText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null(), fmt.Errorf("cannot cast %q to FLOAT", v.s)
			}
			return NewFloat(f), nil
		case KindBool:
			if v.Bool() {
				return NewFloat(1), nil
			}
			return NewFloat(0), nil
		}
	case KindText:
		return NewText(v.String()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.i != 0), nil
		case KindFloat:
			return NewBool(v.Float() != 0), nil
		case KindText:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "1", "yes":
				return NewBool(true), nil
			case "false", "f", "0", "no":
				return NewBool(false), nil
			}
			return Null(), fmt.Errorf("cannot cast %q to BOOL", v.s)
		}
	}
	return Null(), fmt.Errorf("cannot cast %s to %s", v.kind, k)
}
