package conform

import (
	"fmt"
	"os"
	"path/filepath"

	"logpopt/internal/obs"
	"logpopt/internal/runtime"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
)

// DumpTraces replays c once per backend with a fresh flight recorder
// attached and writes one Chrome trace-event JSON file per backend into dir
// (created if missing). It returns the written paths. The intended caller is
// the divergence path: after Shrink produces a minimal failing case, dumping
// its per-backend traces makes the disagreement visible on a Perfetto
// timeline — which send each implementation executed, when, and where the
// executions part ways.
//
// The validator backend executes nothing, so its file holds derived spans:
// the strict-model receptions it reasons about, laid out on the same
// per-processor tracks as the executing backends.
func DumpTraces(c Case, dir, prefix string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name string, tr *obs.Tracer) error {
		path := filepath.Join(dir, sanitize(prefix+"-"+name)+".json")
		if err := tr.WriteFile(path); err != nil {
			return fmt.Errorf("dump %s: %w", name, err)
		}
		paths = append(paths, path)
		return nil
	}

	for _, mode := range []sim.Mode{sim.Strict, sim.Buffered} {
		b := &SimBackend{Mode: mode, Tracer: obs.NewTracer()}
		b.Replay(c)
		if err := write(b.Name(), b.Tracer); err != nil {
			return paths, err
		}
	}
	for _, mode := range []runtime.Mode{runtime.Strict, runtime.Buffered} {
		b := &RuntimeBackend{Mode: mode, Tracer: obs.NewTracer()}
		b.Replay(c)
		if err := write(b.Name(), b.Tracer); err != nil {
			return paths, err
		}
	}

	val := ValidatorBackend{}
	if err := write(val.Name(), validatorTrace(val.Replay(c))); err != nil {
		return paths, err
	}
	return paths, nil
}

// validatorTrace renders the validator's derived schedule as spans: one per
// send and reception, each o cycles wide, on per-processor tracks under its
// own process id so it lands next to (not on top of) the executing backends
// when several dumps are opened together.
func validatorTrace(r Result) *obs.Tracer {
	const pid = 3
	tr := obs.NewTracer()
	tr.NameProcess(pid, "validator (derived)")
	m := r.Trace.M
	for p := 0; p < m.P; p++ {
		tr.NameThread(pid, p, fmt.Sprintf("P%d", p))
	}
	for _, ev := range r.Trace.Events {
		switch ev.Op {
		case schedule.OpSend:
			tr.Span(pid, ev.Proc, "send", int64(ev.Time), int64(m.O),
				obs.A("item", ev.Item), obs.A("to", ev.Peer))
		case schedule.OpRecv:
			tr.Span(pid, ev.Proc, "recv", int64(ev.Time), int64(m.O),
				obs.A("item", ev.Item), obs.A("from", ev.Peer))
		}
	}
	return tr
}

// sanitize maps a case name to a safe file stem: path separators and every
// other byte outside [A-Za-z0-9._-] become underscores.
func sanitize(s string) string {
	out := []byte(s)
	for i, ch := range out {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z',
			ch >= '0' && ch <= '9', ch == '.', ch == '_', ch == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
