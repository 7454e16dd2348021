package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCellRoundTrip(t *testing.T) {
	rows := [][]interface{}{
		{int64(1), float64(1), "x", true, nil},
		{int64(-7), 0.25, "a,'b\"c", false, nil},
		{int64(0), float64(0), "", true, nil},
	}
	cells, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	var got Rows
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			w, g := rows[i][j], got[i][j]
			if wt, gt := typeName(w), typeName(g); wt != gt || w != g {
				t.Errorf("[%d][%d]: want %s(%v), got %s(%v)", i, j, wt, w, gt, g)
			}
		}
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case nil:
		return "nil"
	case int64:
		return "int64"
	case float64:
		return "float64"
	case string:
		return "string"
	case bool:
		return "bool"
	default:
		return "other"
	}
}

// The whole reason cells are tagged: float64(1) and int64(1) must not
// collapse into the same wire representation.
func TestCellIntFloatFidelity(t *testing.T) {
	ci, _ := json.Marshal(Rows{{int64(1)}})
	cf, _ := json.Marshal(Rows{{float64(1)}})
	if string(ci) == string(cf) {
		t.Fatalf("int and float encode identically: %s", ci)
	}
	var back Rows
	if err := json.Unmarshal(cf, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back[0][0].(float64); !ok {
		t.Errorf("float64(1) decoded as %T", back[0][0])
	}
}

// Non-finite floats cannot ride in JSON numbers; they get their own
// tag so a query that overflows still round-trips instead of
// becoming an HTTP 500.
func TestCellNonFiniteFloats(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data, err := json.Marshal(Rows{{v}})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back Rows
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v (wire %s)", v, err, data)
		}
		f, ok := back[0][0].(float64)
		if !ok {
			t.Fatalf("%v decoded as %T", v, back[0][0])
		}
		if math.IsNaN(v) != math.IsNaN(f) || (!math.IsNaN(v) && v != f) {
			t.Errorf("%v round-tripped to %v (wire %s)", v, f, data)
		}
	}
	var r Rows
	if err := r.UnmarshalJSON([]byte(`[[{"nf":"bogus"}]]`)); err == nil {
		t.Error("bad non-finite tag must fail to decode")
	}
}

func TestCellErrors(t *testing.T) {
	if _, err := (Rows{{struct{}{}}}).MarshalJSON(); err == nil {
		t.Error("unsupported type must fail to encode")
	}
	if _, err := EncodeRows([][]interface{}{{int64(1), int32(2)}}); err == nil {
		t.Error("unsupported type must fail the up-front check")
	}
	var r Rows
	if err := r.UnmarshalJSON([]byte(`[[{}]]`)); err == nil {
		t.Error("empty object is ambiguous and must fail to decode")
	}
	if err := r.UnmarshalJSON([]byte(`[[null]]`)); err != nil || r[0][0] != nil {
		t.Errorf("null must decode to nil: %v %v", r, err)
	}
	// A cell object has exactly one member, keyed exactly, whose value
	// is a JSON value of the matching type.
	for _, cell := range []string{
		`{"i":1,"f":2}`, // two members
		`{"i":1,"i":2}`, // duplicate member
		`{"I":1}`,       // case-folded key
		`{"x":1}`,       // unknown key
		`{"i":+1}`,      // not JSON number grammar
		`{"f":0x1p3}`,   // hex float
		`{"f":Inf}`,     // strconv spelling of infinity
		`{"i":1_0}`,     // digit separator
		`{"f":1e400}`,   // out of float64 range
		`{"i":1.5}`,     // not an integer
		`{"i":9223372036854775808}`,
		`{"i":"1"}`,             // wrong JSON type
		`{"b":1}`,               // wrong JSON type
		`{"s":1}`,               // wrong JSON type
		`{"i":null}`,            // null member
		`{"s":"a` + "\n" + `"}`, // raw control byte in a string
		`{"s":"\x"}`,            // bad escape
		`{"s":"\u12"}`,          // short \u escape
		`{"s":"abc}`,            // unterminated
		`{"i":1`,                // unterminated object
	} {
		if err := r.UnmarshalJSON([]byte("[[" + cell + "]]")); err == nil {
			t.Errorf("%s decoded as %#v, want an error", cell, r)
		} else if !strings.HasPrefix(err.Error(), "wire: bad cell") {
			t.Errorf("%s: error %q does not start with \"wire: bad cell\"", cell, err)
		}
	}
	for _, doc := range []string{``, `[`, `[[]`, `[[],]`, `[{"i":1}]`, `[[]] x`, `{}`, `nul`, `[[1]]`} {
		if err := r.UnmarshalJSON([]byte(doc)); err == nil {
			t.Errorf("%q decoded as %#v, want an error", doc, r)
		}
	}
}

// The decoder takes JSON whitespace anywhere and null for the matrix,
// a row or a cell, as encoding/json would.
func TestRowsDecodeWhitespaceAndNull(t *testing.T) {
	var r Rows
	if err := r.UnmarshalJSON([]byte(" \t\r\n[ [ { \"i\" : 7 } , null ] , null , [ ] ]\n")); err != nil {
		t.Fatal(err)
	}
	if len(r) != 3 || len(r[0]) != 2 || r[0][0] != int64(7) || r[0][1] != nil || r[1] != nil || r[2] == nil || len(r[2]) != 0 {
		t.Fatalf("got %#v", r)
	}
	if err := r.UnmarshalJSON([]byte(" null ")); err != nil || r != nil {
		t.Fatalf("null matrix: %#v %v", r, err)
	}
	var qr QueryResponse
	if err := json.Unmarshal([]byte(`{"columns":["a"],"rows":null,"certain":true}`), &qr); err != nil || qr.Rows != nil {
		t.Fatalf("null rows field: %#v %v", qr.Rows, err)
	}
}

// Valid documents the server never writes (escapes, surrogates, raw
// UTF-8, other number spellings) decode as encoding/json decodes them.
func TestRowsDecodeMatchesOracle(t *testing.T) {
	for _, doc := range []string{
		`[[{"s":"\ud834\udd1e \ud800\udc00 \udc00 \ud800x \ud834\u0041 \u00e9\/\b\u0000"}]]`,
		"[[{\"s\":\"raw \xe2\x80\xa8 \xf0\x9d\x84\x9e \xff \xc3 \xed\xa0\x80 \x7f\"}]]",
		`[[{"f":1E+2},{"f":-0.0e-0},{"f":1e-400},{"i":-0},{"nf":"\u006ean"}]]`,
	} {
		var r Rows
		if err := r.UnmarshalJSON([]byte(doc)); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		var o [][]oracleCell
		if err := json.Unmarshal([]byte(doc), &o); err != nil {
			t.Fatalf("%s: oracle: %v", doc, err)
		}
		if msg := sameRows(r, oracleDecodeRows(o), false); msg != "" {
			t.Errorf("%s: %s: got %#v, oracle %#v", doc, msg, r, oracleDecodeRows(o))
		}
	}
}

// An empty result from EncodeRows is written as [], as the server
// always did; Rows itself writes nil as null, as encoding/json does.
func TestEncodeRowsNil(t *testing.T) {
	for _, tc := range []struct {
		rows [][]interface{}
		want string
	}{
		{nil, `[]`},
		{[][]interface{}{}, `[]`},
		{[][]interface{}{{}, {int64(1)}}, `[[],[{"i":1}]]`},
	} {
		enc, err := EncodeRows(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(enc)
		if err != nil || string(data) != tc.want {
			t.Errorf("EncodeRows(%#v) marshals as %s (%v), want %s", tc.rows, data, err, tc.want)
		}
		want, _ := json.Marshal(mustOracleRows(t, tc.rows))
		if string(data) != string(want) {
			t.Errorf("EncodeRows(%#v) marshals as %s, oracle %s", tc.rows, data, want)
		}
	}
	if data, _ := json.Marshal(Rows(nil)); string(data) != "null" {
		t.Errorf("nil Rows marshals as %s", data)
	}
	if data, _ := json.Marshal(Rows{nil}); string(data) != "[null]" {
		t.Errorf("nil row marshals as %s", data)
	}
}

func mustOracleRows(t testing.TB, rows [][]interface{}) [][]oracleCell {
	t.Helper()
	cells, err := oracleEncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// quirkValues are the cells most likely to expose a difference from
// encoding/json: float format boundaries, the sign of zero,
// subnormals, integer extremes, and strings that need escaping.
var quirkValues = []interface{}{
	nil, true, false,
	int64(0), int64(-1), int64(255), int64(256), int64(math.MaxInt64), int64(math.MinInt64),
	math.NaN(), math.Inf(1), math.Inf(-1),
	0.0, math.Copysign(0, -1), 1.0, -2.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.2e-9,
	1e20, 1e21, 1e21 - 65536, 123456789e300, math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	"", "plain", "<script>&amp;</script>", "a\"b\\c/d", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"\u2028\u2029", "\u00e9 \u00fcn\u00ef", "\U0001D11E", "\xff", "a\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	"\ufffd", "'single'",
}

func TestRowsMatchOracle(t *testing.T) {
	var rows [][]interface{}
	for i := range quirkValues {
		rows = append(rows, quirkValues[i:min(i+3, len(quirkValues))])
	}
	rows = append(rows, quirkValues, []interface{}{})
	checkAgainstOracle(t, rows, []string{"{x}", "<&>", ""})
}

// checkAgainstOracle marshals rows as a query response and as a
// stream batch frame with both codecs, requires identical bytes, and
// decodes the bytes back with both.
func checkAgainstOracle(t *testing.T, rows [][]interface{}, lineage []string) {
	t.Helper()
	enc, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	oenc := mustOracleRows(t, rows)
	docs := []struct {
		name      string
		got, want interface{}
	}{
		{"query response",
			QueryResponse{Columns: []string{"a", "b"}, Rows: enc, Certain: lineage == nil, Lineage: lineage},
			oracleQueryResponse{Columns: []string{"a", "b"}, Rows: oenc, Certain: lineage == nil, Lineage: lineage}},
		{"stream batch",
			StreamFrame{Batch: &StreamBatch{Rows: enc, Lineage: lineage}},
			oracleStreamFrame{Batch: &oracleStreamBatch{Rows: oenc, Lineage: lineage}}},
	}
	// encoding/json re-escapes <, >, & and U+2028/U+2029 when it
	// compacts a Marshaler's output, so compare the raw output too.
	raw, err := enc.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(oenc); string(raw) != string(want) {
		t.Fatalf("MarshalJSON differs from the oracle\n got %s\nwant %s", raw, want)
	}
	for _, doc := range docs {
		got, err := json.Marshal(doc.got)
		if err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		want, err := json.Marshal(doc.want)
		if err != nil {
			t.Fatalf("%s: oracle: %v", doc.name, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: bytes differ from the oracle\n got %s\nwant %s", doc.name, got, want)
		}
	}
	data, _ := json.Marshal(StreamFrame{Batch: &StreamBatch{Rows: enc}})
	var f StreamFrame
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	var of oracleStreamFrame
	if err := json.Unmarshal(data, &of); err != nil {
		t.Fatalf("oracle decode %s: %v", data, err)
	}
	if msg := sameRows(f.Batch.Rows, oracleDecodeRows(of.Batch.Rows), false); msg != "" {
		t.Fatalf("decoded rows differ from the oracle's: %s\nwire %s", msg, data)
	}
	if msg := sameRows(f.Batch.Rows, wantDecoded(rows), false); msg != "" {
		t.Fatalf("decoded rows differ from the input: %s\nwire %s", msg, data)
	}
}

// wantDecoded is what a round trip returns for rows: the same values,
// except that every byte of invalid UTF-8 in a string becomes U+FFFD.
func wantDecoded(rows [][]interface{}) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, row := range rows {
		out[i] = make([]interface{}, len(row))
		for j, v := range row {
			if s, ok := v.(string); ok {
				v = string([]rune(s))
			}
			out[i][j] = v
		}
	}
	return out
}

// sameRows compares two matrices cell by cell: same kind, same value,
// floats by bits with every NaN equal. With nilRows, a null row must
// match a null row; otherwise rows are compared by length only.
func sameRows(a, b [][]interface{}, nilRows bool) string {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return "matrix shape"
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (nilRows && (a[i] == nil) != (b[i] == nil)) {
			return "row shape"
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if typeName(x) != typeName(y) {
				return typeName(x) + " vs " + typeName(y)
			}
			if fx, ok := x.(float64); ok {
				fy := y.(float64)
				if math.IsNaN(fx) != math.IsNaN(fy) || (!math.IsNaN(fx) && math.Float64bits(fx) != math.Float64bits(fy)) {
					return "float bits"
				}
				continue
			}
			if x != y {
				return "value"
			}
		}
	}
	return ""
}
