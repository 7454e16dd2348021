package wire

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzWireRows checks Rows against the reflection codec it replaced:
//   - UnmarshalJSON never panics on arbitrary bytes;
//   - whatever it accepts, the oracle accepts with the same values,
//     kinds and float bits (every NaN equal);
//   - rows built from the input marshal, inside a query response and a
//     stream batch frame, to exactly the oracle's bytes;
//   - decoding those bytes returns the values.
func FuzzWireRows(f *testing.F) {
	f.Add([]byte(`[[{"i":1},{"f":0.5},{"s":"x"},{"b":true},null],null,[]]`))
	f.Add([]byte(`[[{"nf":"nan"},{"nf":"+inf"},{"nf":"-inf"},{"f":-0},{"f":5e-324}]]`))
	f.Add([]byte("[[{\"s\":\"<&> \u2028 \U0001D11E \\ud800 \ufffd\"}]]"))
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3, 1, 0, 0, 0, 0, 0, 0, 0, 7, 5, 4, 0xff, '<', '&', 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Rows
		if err := r.UnmarshalJSON(data); err == nil {
			var o [][]oracleCell
			if err := json.Unmarshal(data, &o); err != nil {
				t.Fatalf("accepted %q, which the oracle rejects: %v", data, err)
			}
			var want [][]interface{}
			if o != nil {
				want = oracleDecodeRows(o)
				for i := range o {
					if o[i] == nil {
						want[i] = nil
					}
				}
			}
			if msg := sameRows(r, want, true); msg != "" {
				t.Fatalf("%q decodes differently from the oracle: %s\n got %#v\nwant %#v", data, msg, r, want)
			}
		}
		rows := rowsFromBytes(data)
		checkAgainstOracle(t, rows, nil)
		lineage := make([]string, len(rows))
		for i := range lineage {
			lineage[i] = string(data[:min(i, len(data))])
		}
		checkAgainstOracle(t, rows, lineage)
	})
}

// rowsFromBytes builds a matrix from fuzz input: each byte picks the
// next step (end a row, or add a null, an int, a float from raw bits,
// a bool, a raw-byte string or one of quirkValues) and the bytes after
// it supply the value.
func rowsFromBytes(data []byte) [][]interface{} {
	take := func(n int) []byte {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return b[:n]
	}
	var rows [][]interface{}
	row := []interface{}{}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op % 8 {
		case 0, 7:
			rows = append(rows, row)
			row = []interface{}{}
		case 1:
			row = append(row, nil)
		case 2:
			row = append(row, int64(binary.LittleEndian.Uint64(take(8))))
		case 3:
			row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(take(8))))
		case 4:
			row = append(row, op&0x80 != 0)
		case 5:
			n := min(int(take(1)[0]%32), len(data))
			row = append(row, string(data[:n]))
			data = data[n:]
		case 6:
			row = append(row, quirkValues[int(take(1)[0])%len(quirkValues)])
		}
	}
	if len(row) > 0 {
		rows = append(rows, row)
	}
	return rows
}
