package maybms

import (
	"encoding/json"
	"math"
	"testing"

	"maybms/internal/types"
	"maybms/internal/wire"
)

// Result values reach network clients as wire cells. Float and integer
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
		data, err := json.Marshal(wire.Cell{V: toIface(v)})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var c wire.Cell
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatalf("%v: %s: %v", v, data, err)
		}
		switch v.Kind() {
		case types.KindFloat:
			f, ok := c.V.(float64)
			if !ok || math.Float64bits(f) != math.Float64bits(v.Float()) {
				t.Errorf("%v: %s came back as %#v", v, data, c.V)
			}
		case types.KindInt:
			if i, ok := c.V.(int64); !ok || i != v.Int() {
				t.Errorf("%v: %s came back as %#v", v, data, c.V)
			}
		case types.KindBool:
			if b, ok := c.V.(bool); !ok || b != v.Bool() {
				t.Errorf("%v: %s came back as %#v", v, data, c.V)
			}
		}
	}
}
