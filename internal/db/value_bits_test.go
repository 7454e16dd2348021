package db

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"maybms/internal/types"
)

// Float and integer extremes — NaN payloads and the sign of zero
// included — survive the gob snapshot Save writes and Load reads bit
// for bit.
func TestSnapshotValueBitsRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0x7ff8dead0000beef)),
		types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.SmallestNonzeroFloat64),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewText("x"), types.NewBool(false), types.NewBool(true),
	}
	dumps := make([]valDump, len(vals))
	for i, v := range vals {
		dumps[i] = dumpValue(v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dumps); err != nil {
		t.Fatal(err)
	}
	var back []valDump
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got := loadValue(back[i])
		same := got.Kind() == want.Kind() && got.Int() == want.Int() && got.Text() == want.Text() &&
			math.Float64bits(got.Float()) == math.Float64bits(want.Float()) && got.Bool() == want.Bool()
		if !same {
			t.Errorf("value %d: %v came back as %v", i, want, got)
		}
	}
}
