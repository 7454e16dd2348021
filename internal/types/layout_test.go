package types

import (
	"math"
	"testing"
	"unsafe"
)

// A Value is one kind byte, one 64-bit payload word and a string
// header. Every stored row, batch and evaluation result carries it, so
// growing it is a deliberate change.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// edgeValues are the payloads most likely to be damaged by storing a
// FLOAT as its bits and a BOOL as 0/1 in the integer word.
var edgeValues = []Value{
	Null(),
	NewInt(0), NewInt(1), NewInt(-1), NewInt(2),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2), NewFloat(0.5),
	NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewFloat(math.SmallestNonzeroFloat64), NewFloat(-math.SmallestNonzeroFloat64),
	NewFloat(math.MaxFloat64),
	NewText(""), NewText("a"), NewText("b"),
	NewBool(false), NewBool(true),
}

// Hash and String of edgeValues, and their pairwise Equal ('1') and
// Compare ('<', '=', '>') rows, as computed by the Value that kept a
// separate field per kind. The packed layout must reproduce them: in
// particular 0.0 and -0.0 still compare equal and hash alike, and
// INT 2 still hashes like FLOAT 2.
var edgeGolden = []struct {
	hash    uint64
	str     string
	eq, cmp string
}{
	{0xaf63bd4c8601b7df, "NULL", "0000000000000000000000", "=<<<<<<<<<<<<<<<<<<<<<"},
	{0xcd92cf54dc615e5, "0", "0100000110000000000000", ">=<><<>==<<=<><><<<<<<"},
	{0xde8ddf54eacc2d8, "1", "0010000000000000000000", ">>=><<>>><>=<>>><<<<<<"},
	{0xde85df54eabe958, "-1", "0001000000000000000000", "><<=<<><<<<=<><<<<<<<<"},
	{0xcd96cf54dc682a5, "2", "0000100001000000000000", ">>>>=<>>>=>=<>>><<<<<<"},
	{0xe1fa9f54edbacec, "9223372036854775807", "0000010000000000000000", ">>>>>=>>>>>=<>>><<<<<<"},
	{0xe2029f54edc866c, "-9223372036854775808", "0000001000000000000000", "><<<<<=<<<<=<><<<<<<<<"},
	{0xcd92cf54dc615e5, "0", "0100000110000000000000", ">=<><<>==<<=<><><<<<<<"},
	{0xcd92cf54dc615e5, "-0", "0100000110000000000000", ">=<><<>==<<=<><><<<<<<"},
	{0xcd96cf54dc682a5, "2", "0000100001000000000000", ">>>>=<>>>=>=<>>><<<<<<"},
	{0xe1f5df54edb2bc8, "0.5", "0000000000100000000000", ">><><<>>><==<>>><<<<<<"},
	{0xf04f8cec44e9cb91, "NaN", "0000000000000000000000", ">================<<<<<"},
	{0xde89df54eac5618, "+Inf", "0000000000001000000000", ">>>>>>>>>>>==>>>><<<<<"},
	{0xde81df54eab7c98, "-Inf", "0000000000000100000000", "><<<<<<<<<<=<=<<<<<<<<"},
	{0xedde65ec42d6cbc4, "5e-324", "0000000000000010000000", ">><><<>>><<=<>=><<<<<<"},
	{0xeddee5ec42d7a544, "-5e-324", "0000000000000001000000", "><<><<><<<<=<><=<<<<<<"},
	{0xaf5e30dfc54e656d, "1.7976931348623157e+308", "0000000000000000100000", ">>>>>>>>>>>=<>>>=<<<<<"},
	{0xaf63be4c8601b992, "", "0000000000000000010000", ">>>>>>>>>>>>>>>>>=<<<<"},
	{0x8364f07b4eef7e9, "a", "0000000000000000001000", ">>>>>>>>>>>>>>>>>>=<<<"},
	{0x8364c07b4eef2d0, "b", "0000000000000000000100", ">>>>>>>>>>>>>>>>>>>=<<"},
	{0x824f007b4dfe349, "false", "0000000000000000000010", ">>>>>>>>>>>>>>>>>>>>=<"},
	{0x824ef07b4dfe196, "true", "0000000000000000000001", ">>>>>>>>>>>>>>>>>>>>>="},
}

func TestEdgeValuesMatchFieldPerKindLayout(t *testing.T) {
	if len(edgeGolden) != len(edgeValues) {
		t.Fatalf("%d goldens for %d values", len(edgeGolden), len(edgeValues))
	}
	for i, a := range edgeValues {
		g := edgeGolden[i]
		if h := a.Hash(); h != g.hash {
			t.Errorf("%v.Hash() = %#x, want %#x", a, h, g.hash)
		}
		if s := a.String(); s != g.str {
			t.Errorf("value %d: String() = %q, want %q", i, s, g.str)
		}
		for j, b := range edgeValues {
			eq := byte('0')
			if a.Equal(b) {
				eq = '1'
			}
			cmp := "<=>"[a.Compare(b)+1]
			if eq != g.eq[j] || cmp != g.cmp[j] {
				t.Errorf("%v vs %v: Equal %c Compare %c, want %c %c", a, b, eq, cmp, g.eq[j], g.cmp[j])
			}
		}
	}
}

// Payloads round-trip bit for bit through the constructors and
// accessors, NaN and -0 included.
func TestPayloadBitsRoundTrip(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8dead0000beef),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0.1,
	}
	for _, f := range floats {
		v := NewFloat(f)
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%#x).Float() = %#x", math.Float64bits(f), math.Float64bits(v.Float()))
		}
	}
	for _, i := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		if v := NewInt(i); v.Kind() != KindInt || v.Int() != i {
			t.Errorf("NewInt(%d).Int() = %d", i, v.Int())
		}
	}
	for _, b := range []bool{false, true} {
		if v := NewBool(b); v.Kind() != KindBool || v.Bool() != b || v.Truth() != b {
			t.Errorf("NewBool(%v) = %v", b, v)
		}
	}
}
