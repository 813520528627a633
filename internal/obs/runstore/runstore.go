// Package runstore is the persistent, append-only archive of run reports
// (internal/obs/report): every report a tool emits with -runstore lands in
// a directory keyed by its canonical (tool, op, constructor, machine)
// identity, numbered in arrival order and never overwritten. The store is
// the substrate for cross-run comparison — `logpcheck reportdiff` gates the
// latest run of each key against its predecessor or against another store,
// and the telemetry server's /regimes view folds a whole store into a
// regime map over the machine parameters.
//
// Layout on disk: one subdirectory per key, named by a readable slug plus
// the first 12 hex digits of the SHA-256 of the canonical key string
// (content addressing: the same identity always lands in the same place,
// and two identities never collide on a sanitized slug), holding
// run-000001.json, run-000002.json, ... in arrival order.
//
// Loads are strict: every artifact is decoded through report.Read (unknown
// fields rejected, cross-field invariants enforced) and its derived key
// must match the directory it sits in, so a store that opens cleanly only
// contains trustworthy, correctly-filed reports. The in-memory index is
// bounded — at most HistoryCap summary entries per key, a few dozen bytes
// each — however many artifacts accumulate on disk.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"logpopt/internal/obs/report"
)

// HistoryCap bounds the per-key in-memory index: only the most recent
// HistoryCap runs of a key keep summary entries in memory. Older artifacts
// stay on disk and remain loadable by name; they just drop out of
// History/Latest, which only ever look at the recent past anyway.
const HistoryCap = 128

// Key is the canonical identity reports are archived under: two reports
// share a key exactly when they describe the same operation, built the
// same way, on the same machine — the precondition for a meaningful diff.
type Key struct {
	Tool        string
	Op          string
	Constructor string
	Machine     report.Machine
}

// KeyOf derives the archive key of a report.
func KeyOf(r *report.Report) Key {
	return Key{Tool: r.Tool, Op: r.Op, Constructor: r.Constructor, Machine: r.Machine}
}

// String is the canonical key form the content address is derived from.
func (k Key) String() string {
	return fmt.Sprintf("tool=%s op=%s ctor=%s P=%d L=%d o=%d g=%d",
		k.Tool, k.Op, k.Constructor, k.Machine.P, k.Machine.L, k.Machine.O, k.Machine.G)
}

// slug folds s into a filesystem- and URL-safe fragment: letters, digits,
// dots, underscores and dashes survive, everything else (op names like
// "conform/paper.bcast" carry slashes) becomes a dash.
func slug(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	const maxSlug = 40
	if len(b) > maxSlug {
		b = b[:maxSlug]
	}
	return string(b)
}

// Dir is the key's directory name inside the store: a human-readable slug
// of the op and machine plus a 12-hex-digit content hash of the full
// canonical string. The hash carries the identity (tool and constructor
// included); the slug is only for humans listing the directory.
func (k Key) Dir() string {
	sum := sha256.Sum256([]byte(k.String()))
	return fmt.Sprintf("%s-P%d-L%d-o%d-g%d-%s",
		slug(k.Op), k.Machine.P, k.Machine.L, k.Machine.O, k.Machine.G,
		hex.EncodeToString(sum[:6]))
}

// Entry is one archived run's index record: the summary fields diffing and
// the regime map need, without holding the report itself in memory.
type Entry struct {
	Key        Key
	Seq        int // arrival order within the key, starting at 1
	Finish     int64
	Bound      int64
	Gap        int64
	Violations int
	Dominant   string // largest causal-breakdown component; "" without one
}

// Name is the entry's store-wide handle, "<keydir>@<seq>" — stable across
// processes, safe as a URL path segment, resolvable by Store.Get.
func (e Entry) Name() string {
	return fmt.Sprintf("%s@%d", e.Key.Dir(), e.Seq)
}

// dominant names the largest breakdown component (ties to the earlier
// component in L,o,g,compute,origin,wait order, matching the analyzer's
// presentation order).
func dominant(b *report.Breakdown) string {
	if b == nil {
		return ""
	}
	names := []string{"latency", "overhead", "gap", "compute", "origin", "wait"}
	vals := []int64{b.Latency, b.Overhead, b.Gap, b.Compute, b.Origin, b.Wait}
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return names[best]
}

func entryOf(k Key, seq int, r *report.Report) Entry {
	return Entry{
		Key: k, Seq: seq,
		Finish: r.Finish, Bound: r.Bound, Gap: r.Gap,
		Violations: r.Violations,
		Dominant:   dominant(r.Breakdown),
	}
}

// history is one key's bounded index: the most recent entries in ascending
// sequence order, plus the total ever filed so Put numbers correctly even
// after eviction.
type history struct {
	key     Key
	entries []Entry
	maxSeq  int
}

func (h *history) add(e Entry) {
	if e.Seq > h.maxSeq {
		h.maxSeq = e.Seq
	}
	h.entries = append(h.entries, e)
	sort.Slice(h.entries, func(i, j int) bool { return h.entries[i].Seq < h.entries[j].Seq })
	if len(h.entries) > HistoryCap {
		h.entries = h.entries[len(h.entries)-HistoryCap:]
	}
}

// Store is an opened run store. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	byKey map[string]*history // canonical key string -> bounded history
	dirs  map[string]string   // key dir name -> canonical key string
}

// seqFile renders the artifact filename for a sequence number.
func seqFile(seq int) string { return fmt.Sprintf("run-%06d.json", seq) }

// parseSeq inverts seqFile; ok is false for foreign files.
func parseSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "run-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "run-"), ".json"))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the store rooted at dir and indexes every
// artifact already there. Every existing report is strictly decoded and
// must sit in the directory its own identity hashes to; any corrupt,
// drifted, or misfiled artifact fails the open with the offending path, so
// a store that opens is trustworthy end to end.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{dir: dir, byKey: map[string]*history{}, dirs: map[string]string{}}
	keyDirs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	for _, kd := range keyDirs {
		if !kd.IsDir() {
			continue // stray file at the top level; not ours to judge
		}
		files, err := os.ReadDir(filepath.Join(dir, kd.Name()))
		if err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
		for _, f := range files {
			seq, ok := parseSeq(f.Name())
			if !ok {
				continue
			}
			path := filepath.Join(dir, kd.Name(), f.Name())
			r, err := report.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("runstore: %s: %w", path, err)
			}
			k := KeyOf(r)
			if k.Dir() != kd.Name() {
				return nil, fmt.Errorf("runstore: %s: report identity %s belongs in %s, not %s (misfiled or hand-edited artifact)",
					path, k, k.Dir(), kd.Name())
			}
			s.insert(k, entryOf(k, seq, r))
		}
	}
	return s, nil
}

// insert files e under its key; the caller holds no lock.
func (s *Store) insert(k Key, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := k.String()
	h := s.byKey[ks]
	if h == nil {
		h = &history{key: k}
		s.byKey[ks] = h
		s.dirs[k.Dir()] = ks
	}
	h.add(e)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put validates r and appends it to the store under its derived key,
// returning the new entry. Artifacts are written whole to a temporary file
// and renamed into place, so a crashed writer never leaves a partial
// report where Open would trip over it. Existing runs are never touched.
func (s *Store) Put(r *report.Report) (Entry, error) {
	if err := r.Validate(); err != nil {
		return Entry{}, fmt.Errorf("runstore: refusing to archive: %w", err)
	}
	k := KeyOf(r)
	kdir := filepath.Join(s.dir, k.Dir())
	if err := os.MkdirAll(kdir, 0o755); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}

	// Serialize appends per store: the next sequence number comes from the
	// directory itself (not just the bounded index), so concurrent tools
	// sharing a store via separate Store values still interleave safely
	// enough for our single-writer-per-process tools.
	s.mu.Lock()
	defer s.mu.Unlock()
	maxSeq := 0
	if h := s.byKey[k.String()]; h != nil {
		maxSeq = h.maxSeq
	}
	files, err := os.ReadDir(kdir)
	if err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	for _, f := range files {
		if seq, ok := parseSeq(f.Name()); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	seq := maxSeq + 1

	tmp, err := os.CreateTemp(kdir, ".put-*")
	if err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	werr := r.Write(tmp)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(kdir, seqFile(seq)))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return Entry{}, fmt.Errorf("runstore: %w", werr)
	}

	e := entryOf(k, seq, r)
	ks := k.String()
	h := s.byKey[ks]
	if h == nil {
		h = &history{key: k}
		s.byKey[ks] = h
		s.dirs[k.Dir()] = ks
	}
	h.add(e)
	return e, nil
}

// Keys returns every key in the store, sorted by canonical string.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.byKey))
	for _, h := range s.byKey {
		out = append(out, h.key)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// History returns the indexed runs of k, oldest first (at most HistoryCap).
func (s *Store) History(k Key) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.byKey[k.String()]
	if h == nil {
		return nil
	}
	return append([]Entry(nil), h.entries...)
}

// Latest returns the most recent run of k.
func (s *Store) Latest(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.byKey[k.String()]
	if h == nil || len(h.entries) == 0 {
		return Entry{}, false
	}
	return h.entries[len(h.entries)-1], true
}

// Len is the number of indexed runs across all keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, h := range s.byKey {
		n += len(h.entries)
	}
	return n
}

// Entries returns every indexed run, sorted by key then sequence.
func (s *Store) Entries() []Entry {
	var out []Entry
	for _, k := range s.Keys() {
		out = append(out, s.History(k)...)
	}
	return out
}

// Path is the artifact file behind e.
func (s *Store) Path(e Entry) string {
	return filepath.Join(s.dir, e.Key.Dir(), seqFile(e.Seq))
}

// Load reads and strictly re-validates the full report behind e, checking
// that the artifact on disk still carries the identity it was indexed
// under.
func (s *Store) Load(e Entry) (*report.Report, error) {
	r, err := report.ReadFile(s.Path(e))
	if err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", s.Path(e), err)
	}
	if KeyOf(r) != e.Key {
		return nil, fmt.Errorf("runstore: %s: identity changed on disk (now %s, indexed as %s)",
			s.Path(e), KeyOf(r), e.Key)
	}
	return r, nil
}

// Get resolves an entry name ("<keydir>@<seq>", as produced by Entry.Name)
// to its strictly-decoded report. Only directories the index knows about
// are consulted, so a hostile name can never escape the store root.
func (s *Store) Get(name string) (*report.Report, error) {
	at := strings.LastIndex(name, "@")
	if at < 0 {
		return nil, fmt.Errorf("runstore: malformed run name %q (want <key>@<seq>)", name)
	}
	kdir, seqs := name[:at], name[at+1:]
	seq, err := strconv.Atoi(seqs)
	if err != nil || seq < 1 {
		return nil, fmt.Errorf("runstore: malformed run sequence in %q", name)
	}
	s.mu.Lock()
	ks, ok := s.dirs[kdir]
	var k Key
	if ok {
		k = s.byKey[ks].key
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("runstore: no such key %q", kdir)
	}
	r, err := report.ReadFile(filepath.Join(s.dir, kdir, seqFile(seq)))
	if err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", name, err)
	}
	if KeyOf(r) != k {
		return nil, fmt.Errorf("runstore: %s: identity changed on disk", name)
	}
	return r, nil
}
