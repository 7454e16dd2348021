package maybms

import (
	"encoding/json"
	"math"
	"testing"

	"maybms/internal/types"
	"maybms/internal/wire"
)

// Result values reach network clients as wire rows. Float and integer
// extremes — NaN, infinities, the sign of zero, the smallest
// subnormal — arrive bit for bit.
func TestWireValueBitsRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.SmallestNonzeroFloat64), types.NewFloat(-math.SmallestNonzeroFloat64),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewBool(false), types.NewBool(true),
	}
	for _, v := range vals {
		data, err := json.Marshal(wire.Rows{{toIface(v)}})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back wire.Rows
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %s: %v", v, data, err)
		}
		got := back[0][0]
		switch v.Kind() {
		case types.KindFloat:
			f, ok := got.(float64)
			if !ok || math.Float64bits(f) != math.Float64bits(v.Float()) {
				t.Errorf("%v: %s came back as %#v", v, data, got)
			}
		case types.KindInt:
			if i, ok := got.(int64); !ok || i != v.Int() {
				t.Errorf("%v: %s came back as %#v", v, data, got)
			}
		case types.KindBool:
			if b, ok := got.(bool); !ok || b != v.Bool() {
				t.Errorf("%v: %s came back as %#v", v, data, got)
			}
		}
	}
}
