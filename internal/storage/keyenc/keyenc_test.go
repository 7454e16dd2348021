package keyenc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/types"
)

func TestInt64OrderAndRoundtrip(t *testing.T) {
	vals := []int64{math.MinInt64, -1 << 40, -257, -1, 0, 1, 255, 1 << 40, math.MaxInt64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vals = append(vals, r.Int63()-r.Int63())
	}
	for _, a := range vals {
		enc := AppendInt64(nil, a)
		got, rest, err := Int64(enc)
		if err != nil || got != a || len(rest) != 0 {
			t.Fatalf("roundtrip %d: got %d rest %d err %v", a, got, len(rest), err)
		}
		for _, b := range vals {
			cmp := bytes.Compare(AppendInt64(nil, a), AppendInt64(nil, b))
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if cmp != want {
				t.Fatalf("order(%d, %d): enc %d want %d", a, b, cmp, want)
			}
		}
	}
}

func TestFloat64OrderAndRoundtrip(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, math.Inf(1)}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		vals = append(vals, (r.Float64()-0.5)*math.Pow(10, float64(r.Intn(20))))
	}
	for _, a := range vals {
		enc := AppendFloat64(nil, a)
		got, _, err := Float64(enc)
		if err != nil || got != a {
			t.Fatalf("roundtrip %g: got %g err %v", a, got, err)
		}
		for _, b := range vals {
			cmp := bytes.Compare(AppendFloat64(nil, a), AppendFloat64(nil, b))
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if cmp != want {
				t.Fatalf("order(%g, %g): enc %d want %d", a, b, cmp, want)
			}
		}
	}
}

func TestStringOrderRoundtripAndEscapes(t *testing.T) {
	vals := []string{"", "a", "a\x00b", "a\x01b", "ab", "a\x00", "a\x01", "b", "\x00", "\x01", "\x02", "aa"}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := r.Intn(12)
		s := make([]byte, n)
		for j := range s {
			s[j] = byte(r.Intn(4)) // heavy on 0x00/0x01 to stress escapes
		}
		vals = append(vals, string(s))
	}
	for _, a := range vals {
		enc := AppendString(nil, a)
		got, rest, err := String(enc)
		if err != nil || got != a || len(rest) != 0 {
			t.Fatalf("roundtrip %q: got %q err %v", a, got, err)
		}
		for _, b := range vals {
			cmp := bytes.Compare(AppendString(nil, a), AppendString(nil, b))
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if cmp != want {
				t.Fatalf("order(%q, %q): enc %d want %d", a, b, cmp, want)
			}
		}
	}
}

// Concatenated encodings must stay self-delimiting: decoding a stream
// of values recovers each in turn.
func TestValueStreamRoundtrip(t *testing.T) {
	vals := []types.Value{
		types.Null(), types.NewInt(-5), types.NewFloat(2.75),
		types.NewText("hi\x00there"), types.NewBool(true), types.NewText(""),
		types.NewInt(math.MaxInt64), types.NewBool(false),
	}
	var enc []byte
	for _, v := range vals {
		enc = AppendValue(enc, v)
	}
	rest := enc
	for i, want := range vals {
		var got types.Value
		var err error
		got, rest, err = Value(rest)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Fatalf("value %d: got %v want %v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestValueDecodeErrors(t *testing.T) {
	cases := [][]byte{nil, {0x7f}, {tagInt, 1, 2}, {tagText, 'a'}, {tagText, 0x01}, {tagBool}}
	for _, c := range cases {
		if _, _, err := Value(c); err == nil {
			t.Errorf("decode %v: want error", c)
		}
	}
}

// sameBits reports whether a and b have the same kind and bit-identical
// payloads: NaN payloads and the sign of zero count.
func sameBits(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindInt:
		return a.Int() == b.Int()
	case types.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case types.KindText:
		return a.Text() == b.Text()
	case types.KindBool:
		return a.Bool() == b.Bool()
	}
	return true
}

// Float and integer extremes survive the tagged encoding bit for bit.
func TestValueEdgeBitsRoundtrip(t *testing.T) {
	vals := []types.Value{
		types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0x7ff8dead0000beef)),
		types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.SmallestNonzeroFloat64), types.NewFloat(-math.SmallestNonzeroFloat64),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewBool(false), types.NewBool(true),
	}
	for _, v := range vals {
		got, rest, err := Value(AppendValue(nil, v))
		if err != nil || len(rest) != 0 || !sameBits(got, v) {
			t.Errorf("%v: decoded %v, %d trailing bytes, err %v", v, got, len(rest), err)
		}
	}
}

// fuzzValue builds a value of one of the five kinds from fuzz inputs.
func fuzzValue(kind byte, x uint64, s string) types.Value {
	switch kind % 5 {
	case 1:
		return types.NewInt(int64(x))
	case 2:
		return types.NewFloat(math.Float64frombits(x))
	case 3:
		return types.NewText(s)
	case 4:
		return types.NewBool(x&1 != 0)
	}
	return types.Null()
}

// FuzzKeyencValue checks the tagged value encoding:
//   - decoding arbitrary bytes never panics, and whatever decodes
//     re-encodes to a value that decodes identically;
//   - Value(AppendValue(v)) returns v bit for bit and consumes exactly
//     the encoded bytes, whatever follows them;
//   - for two values of one kind, a.Compare(b) < 0 implies their
//     encodings order the same way under bytes.Compare.
func FuzzKeyencValue(f *testing.F) {
	f.Add([]byte{tagInt, 0x80, 0, 0, 0, 0, 0, 0, 1}, byte(1), uint64(1), uint64(2), "", "")
	f.Add([]byte{tagFloat, 0x7f}, byte(2), math.Float64bits(-0.0), math.Float64bits(math.NaN()), "", "")
	f.Add([]byte{tagText, 'a', 0x01, 0x01, 0x00}, byte(3), uint64(0), uint64(0), "a\x00", "a\x01")
	f.Add([]byte{tagBool, 2}, byte(4), uint64(1), uint64(0), "", "")
	f.Add([]byte{}, byte(0), uint64(0), uint64(0), "", "")
	f.Fuzz(func(t *testing.T, raw []byte, kind byte, x, y uint64, s, u string) {
		if v, _, err := Value(raw); err == nil {
			again, rest, err := Value(AppendValue(nil, v))
			if err != nil || len(rest) != 0 || !sameBits(again, v) {
				t.Fatalf("decoded %v from %x, re-decoded %v (%d trailing, err %v)", v, raw, again, len(rest), err)
			}
		}

		a, b := fuzzValue(kind, x, s), fuzzValue(kind, y, u)
		ea, eb := AppendValue(nil, a), AppendValue(nil, b)
		for _, c := range []struct {
			v   types.Value
			enc []byte
		}{{a, ea}, {b, eb}} {
			buf := append(append([]byte(nil), c.enc...), raw...)
			got, rest, err := Value(buf)
			if err != nil || !sameBits(got, c.v) || !bytes.Equal(rest, raw) {
				t.Fatalf("%v: decoded %v, rest %x (want %x), err %v", c.v, got, rest, raw, err)
			}
		}
		if a.Compare(b) < 0 && bytes.Compare(ea, eb) >= 0 {
			t.Fatalf("%v < %v but encodings %x >= %x", a, b, ea, eb)
		}
		if b.Compare(a) < 0 && bytes.Compare(eb, ea) >= 0 {
			t.Fatalf("%v < %v but encodings %x >= %x", b, a, eb, ea)
		}
	})
}
