package schedule_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/schedule"
	"logpopt/internal/serve/sched"
)

// TestWriteJSONGolden pins the wire format to fixtures written by the
// reflective encoding/json encoder that preceded the hand-written one:
// `logpsched -render json` output for Figure 1's broadcast, a summation
// with compute events (-t 28) and a reduction whose sends to processor 0
// omit "peer". Each schedule is rebuilt by the same compile path and must
// encode to the fixture exactly, through both entry points.
func TestWriteJSONGolden(t *testing.T) {
	m := logp.MustNew(8, 6, 2, 4) // Figure 1's machine, logpsched's default
	cases := []struct {
		file     string
		op       string
		deadline logp.Time
	}{
		{"figure1_broadcast.json", "broadcast", 0},
		{"summation_t28.json", "summation", 28},
		{"reduce_p8.json", "reduce", 0},
	}
	for _, c := range cases {
		t.Run(c.op, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			comp, err := sched.Compile(m, c.op, 1, c.deadline, logtime.Tree)
			if err != nil {
				t.Fatal(err)
			}
			var w bytes.Buffer
			if err := comp.S.WriteJSON(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("WriteJSON differs from %s:\ngot  %.300q\nwant %.300q", c.file, w.Bytes(), want)
			}
			if got := comp.S.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON differs from %s", c.file)
			}
			// The fixture also round-trips through the decoder.
			back, err := schedule.ReadJSON(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if got := back.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("ReadJSON -> AppendJSON differs from %s", c.file)
			}
		})
	}
}
