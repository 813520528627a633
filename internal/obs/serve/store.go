// Run-store views: /compare diffs any two runs the server can name, and
// /regimes folds an attached persistent store (internal/obs/runstore) into
// its regime map with a finish-history sparkline per key. Both resolve run
// names the same way /runs/ does — the in-memory registry first, then the
// store — so anything the listing shows can be compared.

package serve

import (
	"bytes"
	"fmt"
	"html"
	"net/http"

	"logpopt/internal/gate"
	"logpopt/internal/obs/report"
	"logpopt/internal/obs/runstore"
)

// SetStore attaches a persistent run store: its archived runs join the
// /runs/ listing, /compare resolves their names, and /regimes renders its
// regime map. Pass nil to detach.
func (s *Server) SetStore(st *runstore.Store) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

// lookupReport resolves a run name to its report: the in-memory registry
// first (re-decoded through the strict reader — the registry only ever
// holds validated documents), then the attached store.
func (s *Server) lookupReport(name string) (*report.Report, error) {
	s.mu.Lock()
	data := s.runs[name]
	st := s.store
	s.mu.Unlock()
	if data != nil {
		return report.Read(data)
	}
	if st != nil {
		return st.Get(name)
	}
	return nil, fmt.Errorf("no run named %q (see /runs/ for names)", name)
}

// compare serves /compare?a=<run>&b=<run>: the structural diff of two runs
// under the default thresholds, as a text verdict (or JSON with
// &format=json) — the HTTP face of `logpcheck reportdiff`.
func (s *Server) compare(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	a, b := q.Get("a"), q.Get("b")
	if a == "" || b == "" {
		http.Error(w, "want /compare?a=<run>&b=<run> (run names from /runs/)", http.StatusBadRequest)
		return
	}
	ra, err := s.lookupReport(a)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	rb, err := s.lookupReport(b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	v := gate.CompareReports(ra, rb, gate.DefaultReport)
	v.A, v.B = a, b
	if q.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		v.WriteJSON(w) //nolint:errcheck // client disconnects only
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	v.Write(w, true)
}

// regimes serves the attached store's regime map: the heatmap SVG
// (standalone with ?format=svg) wrapped in a page listing every key's
// archived finish history as a sparkline.
func (s *Server) regimes(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		http.Error(w, "no run store attached (start the tool with -runstore <dir>)", http.StatusNotFound)
		return
	}
	cells := st.Regimes()
	svg := runstore.RegimeSVG(cells)
	if req.URL.Query().Get("format") == "svg" {
		// The SVG carries UTF-8 text (ellipses from clipped key labels), so
		// the charset must ride along with the media type.
		w.Header().Set("Content-Type", "image/svg+xml; charset=utf-8")
		fmt.Fprint(w, svg)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><html><head><meta charset="utf-8"><title>logpopt regimes</title>
<style>
body { font: 13px/1.4 monospace; margin: 1.5em; }
h1, h2 { font-size: 15px; }
.key { display: flex; align-items: center; gap: 1em; border-bottom: 1px solid #ddd; padding: 3px 0; }
.name { width: 34em; overflow: hidden; text-overflow: ellipsis; }
.last { width: 16em; }
svg.spark { background: #f6f6f6; }
</style></head><body>
<h1>regime map</h1>
`)
	fmt.Fprint(w, svg)
	fmt.Fprint(w, "\n<h2>per-key finish history</h2>\n")
	for _, k := range st.Keys() {
		h := st.History(k)
		if len(h) == 0 {
			continue
		}
		last := h[len(h)-1]
		fmt.Fprintf(w, `<div class="key"><span class="name"><a href="/runs/%s">%s</a></span>%s<span class="last">finish %d · gap %d · %d run(s)</span></div>`+"\n",
			html.EscapeString(last.Name()), html.EscapeString(k.String()),
			sparkline(h), last.Finish, last.Gap, len(h))
	}
	fmt.Fprint(w, "</body></html>\n")
}

// sparkline renders a key's finish history as a tiny inline SVG polyline.
// A flat history (the deterministic steady state) draws a midline.
func sparkline(h []runstore.Entry) string {
	const w, ht = 240, 28
	lo, hi := h[0].Finish, h[0].Finish
	for _, e := range h {
		if e.Finish < lo {
			lo = e.Finish
		}
		if e.Finish > hi {
			hi = e.Finish
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg class="spark" width="%d" height="%d"><polyline fill="none" stroke="#4c6ef5" stroke-width="1.25" points="`, w, ht)
	step := float64(w-2) / float64(max(len(h)-1, 1))
	for i, e := range h {
		x := 1 + float64(i)*step
		y := 1 + (1-float64(e.Finish-lo)/float64(span))*float64(ht-2)
		if len(h) == 1 {
			y = ht / 2
		}
		fmt.Fprintf(&b, "%.1f,%.1f ", x, y)
	}
	b.WriteString(`"/></svg>`)
	return b.String()
}
