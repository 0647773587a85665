package serve

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// BenchmarkDecodeBody decodes one bodyRecords-record PDT1 batch body, the
// size pdede-serve's clients send, under the server's default record cap.
// Its B/op is what a batch body costs the handler before admission; run it
// with -benchmem -cpu 1.
func BenchmarkDecodeBody(b *testing.B) {
	_, tr, err := workload.Build(workload.Default(), 20_000)
	if err != nil {
		b.Fatal(err)
	}
	body := pdt1("batch", tr.Records[:bodyRecords])
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	r := bytes.NewReader(body)
	for b.Loop() {
		r.Reset(body)
		if _, rep := decodeBody(r, 1<<20); rep != nil {
			b.Fatal(rep.err.Error)
		}
	}
}
