package types

import (
	"errors"
	"fmt"
)

// ErrDivisionByZero is returned by Div and Mod on zero divisors.
var ErrDivisionByZero = errors.New("division by zero")

// binNumeric applies fi/ff depending on operand kinds, propagating NULL.
func binNumeric(a, b Value, op string, fi func(x, y int64) (Value, error), ff func(x, y float64) (Value, error)) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.numeric() || !b.numeric() {
		return Null(), fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, a.Kind(), b.Kind())
	}
	if a.kind == KindInt && b.kind == KindInt {
		return fi(a.i, b.i)
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	return ff(x, y)
}

// Add computes a+b. TEXT operands concatenate.
func Add(a, b Value) (Value, error) {
	if a.kind == KindText && b.kind == KindText {
		return NewText(a.s + b.s), nil
	}
	return binNumeric(a, b, "+",
		func(x, y int64) (Value, error) { return NewInt(x + y), nil },
		func(x, y float64) (Value, error) { return NewFloat(x + y), nil })
}

// Sub computes a-b.
func Sub(a, b Value) (Value, error) {
	return binNumeric(a, b, "-",
		func(x, y int64) (Value, error) { return NewInt(x - y), nil },
		func(x, y float64) (Value, error) { return NewFloat(x - y), nil })
}

// Mul computes a*b.
func Mul(a, b Value) (Value, error) {
	return binNumeric(a, b, "*",
		func(x, y int64) (Value, error) { return NewInt(x * y), nil },
		func(x, y float64) (Value, error) { return NewFloat(x * y), nil })
}

// Div computes a/b. Integer division truncates, as in PostgreSQL.
func Div(a, b Value) (Value, error) {
	return binNumeric(a, b, "/",
		func(x, y int64) (Value, error) {
			if y == 0 {
				return Null(), ErrDivisionByZero
			}
			return NewInt(x / y), nil
		},
		func(x, y float64) (Value, error) {
			if y == 0 {
				return Null(), ErrDivisionByZero
			}
			return NewFloat(x / y), nil
		})
}

// Mod computes a%b on integers.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	x, okx := a.AsInt()
	y, oky := b.AsInt()
	if !okx || !oky {
		return Null(), fmt.Errorf("operator %% requires integer operands, got %s and %s", a.Kind(), b.Kind())
	}
	if y == 0 {
		return Null(), ErrDivisionByZero
	}
	return NewInt(x % y), nil
}

// Neg computes -a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		return NewInt(-a.i), nil
	case KindFloat:
		return NewFloat(-a.Float()), nil
	default:
		return Null(), fmt.Errorf("operator - requires a numeric operand, got %s", a.Kind())
	}
}
