package schedule

import (
	"testing"

	"logpopt/internal/logp"
)

// FuzzValidate feeds arbitrary event streams to the validator, which must
// never panic and must report exactly the violations of the map-based
// oracle. Bytes decode into a small machine and a sequence of events whose
// processors and peers range past both ends of [0, P) and whose ops include
// unknown kinds.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 0, 0, 0, 1, 5})
	f.Add([]byte{8, 6, 2, 4, 0, 0, 10, 1, 3, 1, 1, 18, 1, 0})
	f.Add([]byte{})
	// Negative and beyond-P processors and peers, on both message ends.
	f.Add([]byte{3, 2, 1, 1, 0, 9, 0, 1, 0, 11, 12, 1, 1, 9, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 5, 0, 1, 11, 4, 0, 2, 2, 2, 10, 1, 2, 11, 3, 4, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := logp.Machine{
			P: int(data[0]%8) + 1,
			L: logp.Time(data[1]%8) + 1,
			O: logp.Time(data[2] % 4),
			G: logp.Time(data[3]%4) + 1,
		}
		s := &Schedule{M: m}
		rest := data[4:]
		for len(rest) >= 5 {
			ev := Event{
				Proc: int(rest[0]%12) - 2,
				Time: logp.Time(rest[1]) - 8,
				Op:   Op(int(rest[2]%5) - 1),
				Item: int(rest[3] % 6),
				Peer: int(rest[4]%12) - 2,
				Dur:  logp.Time(rest[4] % 5),
			}
			s.Events = append(s.Events, ev)
			rest = rest[5:]
		}
		origins := map[int]Origin{0: {Proc: 0}, 1: {Proc: 0, Time: 3}, 2: {Proc: -1}, 3: {Proc: 9, Time: 1}}
		if err := SameAsOracle(s, origins); err != nil {
			t.Fatal(err)
		}
		// None of these may panic.
		_ = CheckBroadcastComplete(s, origins)
		s.Sort()
		_ = s.Makespan()
		_ = s.LastRecv()
		_ = s.ByProc()
	})
}

// FuzzValidatorConsistency checks a metamorphic property: a schedule that
// passes the strict validator must also pass the deferred validator (strict
// reception times are a special case of deferred ones).
func FuzzValidatorConsistency(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := logp.Machine{
			P: int(data[0]%6) + 2,
			L: logp.Time(data[1]%6) + 1,
			O: logp.Time(data[2] % 3),
			G: logp.Time(data[3]%3) + 1,
		}
		s := &Schedule{M: m}
		rest := data[4:]
		// Build matched send/recv pairs only, with bounded times.
		for len(rest) >= 4 {
			from := int(rest[0] % uint8(m.P))
			to := int(rest[1] % uint8(m.P))
			at := logp.Time(rest[2] % 50)
			item := int(rest[3] % 4)
			rest = rest[4:]
			if from == to {
				continue
			}
			s.Send(from, at, item, to)
			s.Recv(to, at+m.O+m.L, item, from)
		}
		if len(Validate(s)) == 0 {
			if vs := ValidateDeferred(s); len(vs) != 0 {
				t.Fatalf("strict-clean schedule fails deferred validation: %v", vs[0])
			}
		}
	})
}
