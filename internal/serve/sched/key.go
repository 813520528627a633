package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"logpopt/internal/logp"
)

// Request is one schedule question as it arrives from a client, either as
// /v1/schedule query parameters, a POST body or an element of a /v1/batch
// body. Absent fields take the values in defaults; P is required.
type Request struct {
	Op          string    `json:"op"`
	Constructor string    `json:"constructor,omitempty"` // "", "auto", "search", "logtime": all mean logtime
	P           int       `json:"p"`
	L           logp.Time `json:"l"`
	O           logp.Time `json:"o"`
	G           logp.Time `json:"g"`
	K           int       `json:"k,omitempty"`
	Deadline    logp.Time `json:"t,omitempty"`
}

// defaults holds the value of every Request field a client leaves out, on
// every path: the query string, a POST body, a batch element and a sweep's
// empty axes. They match cmd/logpsched's flags. An empty op is broadcast
// (Canonicalize).
var defaults = Request{L: 6, O: 2, G: 4, K: 1}

// UnmarshalJSON decodes a JSON request over the defaults, so an absent
// field takes its default and an explicit one, zero included, is kept for
// Canonicalize to check. Unknown fields are an error.
func (r *Request) UnmarshalJSON(b []byte) error {
	type fields Request // without this method
	f := fields(defaults)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return err
	}
	*r = Request(f)
	return nil
}

// Key is the canonical cache identity of a request: machine parameters the
// op actually reads, the constructor for ops that build a tree, and k/t only
// where they matter. Two requests that are the same question canonicalize
// to the same Key; near-miss machines do not.
type Key struct {
	Op          string
	Constructor string // "logtime" for tree ops, "" for the rest
	P           int
	L, O, G     logp.Time
	K           int
	Deadline    logp.Time
}

// String renders the key in its canonical spelling.
func (k Key) String() string {
	var b strings.Builder
	b.WriteString(k.Op)
	if k.Constructor != "" {
		b.WriteByte('/')
		b.WriteString(k.Constructor)
	}
	fmt.Fprintf(&b, "/P%d/L%d/o%d/g%d", k.P, k.L, k.O, k.G)
	if k.K != 0 {
		fmt.Fprintf(&b, "/k%d", k.K)
	}
	if k.Deadline != 0 {
		fmt.Fprintf(&b, "/t%d", k.Deadline)
	}
	return b.String()
}

// Machine rebuilds the validated machine the key describes.
func (k Key) Machine() logp.Machine {
	return logp.Machine{P: k.P, L: k.L, O: k.O, G: k.G}
}

// Canonicalize validates req and folds every don't-care dimension away:
//
//   - postal-model ops (kitem, continuous) force o=0, g=1, so requests that
//     differ only there are one cache entry;
//   - k is kept only for ops that consume it (kitem, alltoall, continuous)
//     and zeroed elsewhere, so broadcast?k=7 is broadcast;
//   - the deadline is kept only for summation;
//   - the constructor is validated, then set to "logtime" (the only tree
//     builder) for tree-building ops and cleared for the rest, so every
//     accepted spelling of it is one cache entry.
//
// The second argument is ignored; it predates the single constructor.
func Canonicalize(req Request, _ string) (Key, error) {
	if req.Op == "" {
		req.Op = "broadcast"
	}
	if !KnownOp(req.Op) {
		return Key{}, fmt.Errorf("unknown op %q (want one of %v)", req.Op, Ops)
	}
	if req.P < 1 {
		return Key{}, fmt.Errorf("p must be at least 1, got %d", req.P)
	}
	if req.L < 1 {
		return Key{}, fmt.Errorf("l must be at least 1, got %d", req.L)
	}
	var m logp.Machine
	if PostalOp(req.Op) {
		m = logp.Postal(req.P, req.L)
	} else {
		var err error
		if m, err = logp.New(req.P, req.L, req.O, req.G); err != nil {
			return Key{}, err
		}
	}
	k := Key{Op: req.Op, P: m.P, L: m.L, O: m.O, G: m.G}
	if KOp(req.Op) {
		if req.K < 1 {
			return Key{}, fmt.Errorf("op %s: k must be at least 1, got %d", req.Op, req.K)
		}
		k.K = req.K
	}
	if req.Op == "summation" {
		if req.Deadline <= 0 {
			return Key{}, fmt.Errorf("summation requires a deadline t > 0, got %d", req.Deadline)
		}
		k.Deadline = req.Deadline
	}
	if TreeOp(req.Op) {
		switch req.Constructor {
		case "", "auto", "search", "logtime":
		default:
			return Key{}, fmt.Errorf("unknown constructor %q (want auto, search, or logtime)", req.Constructor)
		}
		k.Constructor = "logtime"
	}
	return k, nil
}

// fnv64a hashes s with the 64-bit FNV-1a function (inlined so the package
// needs no hash imports on the request hot path).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Shard maps the key onto one of n buckets by a hash of its canonical
// string, so equal keys share a bucket. The cache does not use it;
// perfbench orders its hot requests by it.
func (k Key) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv64a(k.String()) % uint64(n))
}

// parseTime parses a query-string integer into a logp.Time.
func parseTime(s string) (logp.Time, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return logp.Time(v), nil
}

// ParseQuery builds a Request from /v1/schedule-style query parameters;
// absent parameters take the defaults.
func ParseQuery(get func(string) string) (Request, error) {
	req := defaults
	req.Op, req.Constructor = get("op"), get("constructor")
	fields := []struct {
		name string
		set  func(logp.Time)
	}{
		{"l", func(v logp.Time) { req.L = v }},
		{"o", func(v logp.Time) { req.O = v }},
		{"g", func(v logp.Time) { req.G = v }},
		{"t", func(v logp.Time) { req.Deadline = v }},
	}
	for _, f := range fields {
		if s := get(f.name); s != "" {
			v, err := parseTime(s)
			if err != nil {
				return Request{}, fmt.Errorf("parameter %s=%q is not an integer", f.name, s)
			}
			f.set(v)
		}
	}
	for _, f := range []struct {
		name string
		set  func(int)
	}{
		{"p", func(v int) { req.P = v }},
		{"k", func(v int) { req.K = v }},
	} {
		if s := get(f.name); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return Request{}, fmt.Errorf("parameter %s=%q is not an integer", f.name, s)
			}
			f.set(v)
		}
	}
	if get("p") == "" {
		return Request{}, fmt.Errorf("parameter p is required (number of processors)")
	}
	return req, nil
}
