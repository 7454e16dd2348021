package wire

import (
	"encoding/json"
	"fmt"
	"math"
)

// The reflection codec that Rows replaced, kept as the oracle for its
// bytes and values: each cell marshals a struct of pointer fields
// through encoding/json and unmarshals through a nested json.Unmarshal.

// oracleCell is one result value in the old codec.
type oracleCell struct {
	V interface{}
}

type oracleTagged struct {
	I  *int64   `json:"i,omitempty"`
	F  *float64 `json:"f,omitempty"`
	S  *string  `json:"s,omitempty"`
	B  *bool    `json:"b,omitempty"`
	NF *string  `json:"nf,omitempty"`
}

func (c oracleCell) MarshalJSON() ([]byte, error) {
	switch v := c.V.(type) {
	case nil:
		return []byte("null"), nil
	case int64:
		return json.Marshal(oracleTagged{I: &v})
	case float64:
		switch {
		case math.IsNaN(v):
			nf := "nan"
			return json.Marshal(oracleTagged{NF: &nf})
		case math.IsInf(v, 1):
			nf := "+inf"
			return json.Marshal(oracleTagged{NF: &nf})
		case math.IsInf(v, -1):
			nf := "-inf"
			return json.Marshal(oracleTagged{NF: &nf})
		}
		return json.Marshal(oracleTagged{F: &v})
	case string:
		return json.Marshal(oracleTagged{S: &v})
	case bool:
		return json.Marshal(oracleTagged{B: &v})
	default:
		return nil, fmt.Errorf("wire: unsupported cell type %T", c.V)
	}
}

func (c *oracleCell) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		c.V = nil
		return nil
	}
	var t oracleTagged
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("wire: bad cell %s: %v", data, err)
	}
	switch {
	case t.I != nil:
		c.V = *t.I
	case t.F != nil:
		c.V = *t.F
	case t.S != nil:
		c.V = *t.S
	case t.B != nil:
		c.V = *t.B
	case t.NF != nil:
		switch *t.NF {
		case "nan":
			c.V = math.NaN()
		case "+inf":
			c.V = math.Inf(1)
		case "-inf":
			c.V = math.Inf(-1)
		default:
			return fmt.Errorf("wire: bad non-finite tag %q", *t.NF)
		}
	default:
		return fmt.Errorf("wire: ambiguous empty cell %s", data)
	}
	return nil
}

// oracleEncodeRows is the old EncodeRows: it copied every row into
// tagged cells.
func oracleEncodeRows(rows [][]interface{}) ([][]oracleCell, error) {
	out := make([][]oracleCell, len(rows))
	for i, row := range rows {
		out[i] = make([]oracleCell, len(row))
		for j, v := range row {
			switch v.(type) {
			case nil, int64, float64, string, bool:
			default:
				return nil, fmt.Errorf("wire: unsupported cell type %T", v)
			}
			out[i][j] = oracleCell{V: v}
		}
	}
	return out, nil
}

// oracleDecodeRows is the old DecodeRows.
func oracleDecodeRows(rows [][]oracleCell) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, row := range rows {
		out[i] = make([]interface{}, len(row))
		for j, c := range row {
			out[i][j] = c.V
		}
	}
	return out
}

// The old protocol types, with the oracle's cells in place of Rows.
type oracleQueryResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]oracleCell `json:"rows"`
	Certain bool           `json:"certain"`
	Lineage []string       `json:"lineage,omitempty"`
}

type oracleStreamFrame struct {
	Header  *StreamHeader      `json:"header,omitempty"`
	Batch   *oracleStreamBatch `json:"batch,omitempty"`
	Done    *StreamDone        `json:"done,omitempty"`
	Error   string             `json:"error,omitempty"`
	ErrCode string             `json:"err_code,omitempty"`
}

type oracleStreamBatch struct {
	Rows    [][]oracleCell `json:"rows"`
	Lineage []string       `json:"lineage,omitempty"`
}
