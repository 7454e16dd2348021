package types

import "fmt"

// Tri is a truth value of SQL's three-valued logic.
type Tri uint8

const (
	// TriFalse is FALSE.
	TriFalse Tri = iota
	// TriTrue is TRUE.
	TriTrue
	// TriNull is UNKNOWN, the truth value of a NULL boolean.
	TriNull
)

// TriOf converts a value used in a boolean context: NULL is UNKNOWN,
// anything else is TRUE or FALSE by Truth.
func TriOf(v Value) Tri {
	if v.kind == KindNull {
		return TriNull
	}
	return TriBool(v.Truth())
}

// TriBool converts a known boolean.
func TriBool(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}

// Value returns t as a BOOL value, NULL for UNKNOWN.
func (t Tri) Value() Value {
	if t == TriNull {
		return Null()
	}
	return NewBool(t == TriTrue)
}

// Not negates t; UNKNOWN stays UNKNOWN.
func (t Tri) Not() Tri {
	switch t {
	case TriFalse:
		return TriTrue
	case TriTrue:
		return TriFalse
	}
	return TriNull
}

// And is the three-valued conjunction: FALSE dominates, then UNKNOWN.
func (t Tri) And(o Tri) Tri {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriTrue
}

// Or is the three-valued disjunction: TRUE dominates, then UNKNOWN.
func (t Tri) Or(o Tri) Tri {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriNull || o == TriNull {
		return TriNull
	}
	return TriFalse
}

// CmpOp is a comparison operator resolved once, at compile time.
type CmpOp uint8

const (
	CmpEq CmpOp = iota // =
	CmpNe              // <> or !=
	CmpLt              // <
	CmpLe              // <=
	CmpGt              // >
	CmpGe              // >=
)

// ParseCmpOp resolves a comparison operator's SQL spelling.
func ParseCmpOp(op string) (CmpOp, bool) {
	switch op {
	case "=":
		return CmpEq, true
	case "<>", "!=":
		return CmpNe, true
	case "<":
		return CmpLt, true
	case "<=":
		return CmpLe, true
	case ">":
		return CmpGt, true
	case ">=":
		return CmpGe, true
	}
	return 0, false
}

// Cmp evaluates a op b under SQL semantics: a NULL operand yields
// UNKNOWN, numeric kinds compare by value, and an ordering comparison
// of incomparable kinds is an error. The operands are read in place.
func Cmp(op CmpOp, a, b *Value) (Tri, error) {
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case CmpEq:
			return TriBool(x == y), nil
		case CmpNe:
			return TriBool(x != y), nil
		case CmpLt:
			return TriBool(x < y), nil
		case CmpLe:
			return TriBool(x <= y), nil
		case CmpGt:
			return TriBool(x > y), nil
		default:
			return TriBool(x >= y), nil
		}
	}
	if a.kind == KindNull || b.kind == KindNull {
		return TriNull, nil
	}
	if op == CmpEq || op == CmpNe {
		eq, _ := a.equalNullable(*b)
		return TriBool(eq == (op == CmpEq)), nil
	}
	if !(a.numeric() && b.numeric()) && a.kind != b.kind {
		return TriNull, fmt.Errorf("cannot compare %s with %s", a.Kind(), b.Kind())
	}
	c := a.Compare(*b)
	switch op {
	case CmpLt:
		return TriBool(c < 0), nil
	case CmpLe:
		return TriBool(c <= 0), nil
	case CmpGt:
		return TriBool(c > 0), nil
	default:
		return TriBool(c >= 0), nil
	}
}

// CompareOp evaluates a comparison operator ("=", "<>", "!=", "<",
// "<=", ">", ">=") under SQL semantics: NULL operands yield NULL. It
// is Cmp with the operator given by its spelling.
func CompareOp(op string, a, b Value) (Value, error) {
	c, ok := ParseCmpOp(op)
	if !ok {
		return Null(), fmt.Errorf("unknown comparison operator %q", op)
	}
	t, err := Cmp(c, &a, &b)
	if err != nil {
		return Null(), err
	}
	return t.Value(), nil
}
