package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// benchRows is 10,000 rows of three INT cells, sent as 1,024-row
// stream batch frames like the server's streaming endpoint.
func benchRows() [][][]interface{} {
	var batches [][][]interface{}
	for start := 0; start < 10000; start += 1024 {
		var batch [][]interface{}
		for i := start; i < min(start+1024, 10000); i++ {
			batch = append(batch, []interface{}{int64(i), int64(i * 7919), int64(i % 100)})
		}
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkWireRows encodes and decodes the frames with Rows and with
// the reflection codec it replaced; one op is the whole 10,000 rows.
func BenchmarkWireRows(b *testing.B) {
	batches := benchRows()
	b.Run("encode/rows", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			enc := json.NewEncoder(&bytes.Buffer{})
			for _, batch := range batches {
				rows, err := EncodeRows(batch)
				if err != nil {
					b.Fatal(err)
				}
				if err := enc.Encode(StreamFrame{Batch: &StreamBatch{Rows: rows}}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encode/oracle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			enc := json.NewEncoder(&bytes.Buffer{})
			for _, batch := range batches {
				cells, err := oracleEncodeRows(batch)
				if err != nil {
					b.Fatal(err)
				}
				if err := enc.Encode(oracleStreamFrame{Batch: &oracleStreamBatch{Rows: cells}}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for _, batch := range batches {
		rows, _ := EncodeRows(batch)
		if err := enc.Encode(StreamFrame{Batch: &StreamBatch{Rows: rows}}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("decode/rows", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			dec := json.NewDecoder(bytes.NewReader(stream.Bytes()))
			for range batches {
				var f StreamFrame
				if err := dec.Decode(&f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode/oracle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			dec := json.NewDecoder(bytes.NewReader(stream.Bytes()))
			for range batches {
				var f oracleStreamFrame
				if err := dec.Decode(&f); err != nil {
					b.Fatal(err)
				}
				_ = oracleDecodeRows(f.Batch.Rows)
			}
		}
	})
}
