package continuous

import (
	"errors"
	"fmt"

	"logpopt/internal/obs"
	"logpopt/internal/par"
)

// Search metrics. Per the obs overhead discipline, the backtracking hot loop
// tallies into plain baseSearch fields; solveBase flushes one atomic add per
// counter per run.
var (
	mSearchRuns   = obs.Default.Counter("continuous.search.runs")
	mSearchNodes  = obs.Default.Counter("continuous.search.nodes")
	mSearchPrunes = obs.Default.Counter("continuous.search.prunes")
)

// Sentinel errors distinguishing "ran out of search budget" (retrying with a
// different seed or larger budget may help) from "exhaustively proved there
// is no solution".
var (
	ErrBudget     = errors.New("search budget exhausted")
	ErrNoSolution = errors.New("no block-cyclic solution")
)

// errCanceled marks a search attempt cut short because a portfolio sibling
// already decided the instance; it never escapes the portfolio layer.
var errCanceled = errors.New("search canceled")

func isBudgetErr(err error) bool { return errors.Is(err, ErrBudget) }

// This file contains the word-assignment solvers. Words are handled
// internally in "letter index" form: letter index i denotes the leaf delay
// t-i, i.e. 'a' (index 0) is the item whose broadcast terminates at the
// current step, 'b' (index 1) the one terminating next step, and so on —
// the paper's relative addressing. The index form is translation-invariant,
// which is what makes the paper's inductive composition
//
//	I(t) = I(t-1) ⊎ I(t-L)
//
// work: words carried from the sub-solutions remain legal verbatim because
// all residues shift uniformly.

// idxWord is a word in letter-index form.
type idxWord []int

// strongSolution is a solution in the composable form the induction of
// Section 3.3 needs: composing I(t) = I(t-1) ⊎ I(t-L) moves the receive-only
// letter of I(t-L) into the grown root word and keeps I(t-1)'s receive-only
// processor. The paper fixes both receive-only letters to 'b' and keeps the
// root word inside the canonical family a^{L-2}(ca)^j b^m so the append is
// legal verbatim; we generalize by recording the receive-only letter and
// re-solving just the root word (a single-block search over a fixed letter
// multiset) at composition time, which makes every base solution composable.
type strongSolution struct {
	t        int
	words    map[int][]idxWord // block size -> words (one per block of that size)
	rootWord idxWord           // the root block's word (size t-L+1); also in words
	recvOnly int               // the receive-only processor's letter index
}

// legalIdxWord checks the residue criterion for a block of the given size
// and delay with a word in index form on instance horizon t: residues
// (0 - delay) and (p - (t - idx_p)) must be pairwise distinct mod size.
func legalIdxWord(t, size, delay int, w idxWord) bool {
	seen := make([]bool, size)
	seen[mod(-delay, size)] = true
	for p := 1; p < size; p++ {
		res := mod(p-(t-w[p-1]), size)
		if seen[res] {
			return false
		}
		seen[res] = true
	}
	return true
}

// familyWord returns the canonical word a^{L-2}(ca)^j b^m, which is legal
// for a root block (delay 0) of size L-2+2j+m+1 at any horizon (Lemma 3.1).
func familyWord(l, j, m int) idxWord {
	w := make(idxWord, 0, l-2+2*j+m)
	for i := 0; i < l-2; i++ {
		w = append(w, 0)
	}
	for i := 0; i < j; i++ {
		w = append(w, 2, 0)
	}
	for i := 0; i < m; i++ {
		w = append(w, 1)
	}
	return w
}

// solveOpts configures the backtracking base solver.
type solveOpts struct {
	maxNodes int64
	// strong forces the composable form: the receive-only letter is 'b'
	// (index 1) and the root word's letter-index sum is r-L+1, the unique
	// sum residue class that keeps the inductive chain appending 'b'
	// forever (the canonical family of Lemma 3.1 has exactly this sum).
	strong bool
	// seed selects the letter-preference order: 0 = scarcest first,
	// 1 = most plentiful first, otherwise a deterministic pseudo-random
	// shuffle. Restarting a stuck search with a different order often
	// succeeds quickly (heavy-tailed search behaviour).
	seed int64
	// stop, when non-nil, is polled coarsely (every stopPollMask+1 nodes)
	// so a portfolio sibling's success or infeasibility proof cancels this
	// attempt. A canceled search returns errCanceled.
	stop *par.Stop
}

// letterOrder returns the iteration order over letter indices for a seed.
func letterOrder(l int, seed int64) []int {
	ord := make([]int, l)
	for i := range ord {
		ord[i] = i
	}
	switch seed {
	case 0: // scarcest (highest index) first
		for i, j := 0, l-1; i < j; i, j = i+1, j-1 {
			ord[i], ord[j] = ord[j], ord[i]
		}
	case 1: // most plentiful (lowest index) first
	default: // deterministic shuffle via a small LCG
		state := uint64(seed)*2862933555777941757 + 3037000493
		for i := l - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % (i + 1)
			ord[i], ord[j] = ord[j], ord[i]
		}
	}
	return ord
}

// stopPollMask sets the cancellation polling cadence: the stop token is
// checked once every 8192 search nodes, keeping the atomic load off the
// per-node hot path while bounding cancellation latency.
const stopPollMask = 8191

// baseSearch is the state of one backtracking run over an instance's blocks.
// It replaces the former closure-based implementation: the recursion visits
// the search tree in exactly the same order (so budgets and found words are
// bit-for-bit identical), but state lives in struct fields instead of
// heap-allocated closure captures, and block residues are precomputed, which
// roughly halves the per-node cost of the hottest loop in the repository.
type baseSearch struct {
	inst    *Instance
	t, l    int
	strong  bool
	counts  []int
	words   []idxWord
	order   []int // block-processing order (indices into inst.Blocks)
	letters []int
	budget  int64
	steps   int64
	prunes  int64 // residue/sum-pruned branches, flushed to obs by solveBase
	stop    *par.Stop
	stopped bool

	// resTab[bi] holds, for block bi of size r, the residue
	// mod(p-(t-i), r) at flat index (p-1)*l + i; seenTab[bi] is the block's
	// residue-occupancy array with the uppercase (delay) bit preset.
	resTab  [][]int
	seenTab [][]bool

	// Strong-mode sum pruning (see solveBase).
	consumed, slotsLeft, targetConsumed int
	rootBi, rootSize                    int
	recvOnly                            int
}

// pollStop checks the cancellation token every stopPollMask+1 nodes; on
// cancellation the budget is zeroed so the recursion unwinds immediately.
func (s *baseSearch) pollStop() {
	s.steps++
	if s.steps&stopPollMask == 0 && s.stop != nil && s.stop.Stopped() {
		s.stopped = true
		s.budget = 0
	}
}

// sumPruned reports whether consuming one more letter of index extra makes
// the strong-mode sum target unreachable.
func (s *baseSearch) sumPruned(extra int) bool {
	if s.targetConsumed < 0 {
		return false
	}
	c := s.consumed + extra
	left := s.slotsLeft - 1
	return c > s.targetConsumed || c+left*(s.l-1) < s.targetConsumed
}

func (s *baseSearch) fill(oi, bi, p int, prev idxWord) bool {
	if s.budget <= 0 {
		return false
	}
	s.budget--
	s.pollStop()
	r := s.inst.Blocks[bi].Size
	if p == r {
		return s.solveFrom(oi + 1)
	}
	row := s.resTab[bi][(p-1)*s.l:]
	seen := s.seenTab[bi]
	w := s.words[bi]
	for _, i := range s.letters {
		if s.counts[i] == 0 {
			continue
		}
		res := row[i]
		if seen[res] {
			s.prunes++
			continue
		}
		childPrev := prev
		if prev != nil && p-1 < len(prev) {
			if i > prev[p-1] {
				continue
			}
			if i < prev[p-1] {
				childPrev = nil
			}
		}
		if s.sumPruned(i) {
			s.prunes++
			continue
		}
		w[p-1] = i
		s.counts[i]--
		seen[res] = true
		s.consumed += i
		s.slotsLeft--
		if s.fill(oi, bi, p+1, childPrev) {
			return true
		}
		s.consumed -= i
		s.slotsLeft++
		seen[res] = false
		s.counts[i]++
	}
	return false
}

func (s *baseSearch) solveFrom(oi int) bool {
	if s.budget <= 0 {
		return false
	}
	s.budget--
	if oi == len(s.order) {
		return s.finish()
	}
	bi := s.order[oi]
	b := &s.inst.Blocks[bi]
	if b.Size == 1 {
		return s.solveFrom(oi + 1)
	}
	var prev idxWord
	if oi > 0 {
		pb := s.order[oi-1]
		if s.inst.Blocks[pb].Size == b.Size && s.inst.Blocks[pb].Delay == b.Delay && s.words[pb] != nil {
			prev = s.words[pb]
		}
	}
	return s.fill(oi, bi, 1, prev)
}

func (s *baseSearch) finish() bool {
	if s.strong {
		// The leftover letters fill the root word; they must have the
		// self-sustaining sum r-L+1 and admit a legal word.
		left, sum := 0, 0
		for i, c := range s.counts {
			left += c
			sum += c * i
		}
		if left != s.rootSize-1 || sum != s.rootSize-s.l+1 {
			return false
		}
		pool := make(idxWord, 0, left)
		for i, c := range s.counts {
			for j := 0; j < c; j++ {
				pool = append(pool, i)
			}
		}
		w := solveSingleWord(s.t, s.rootSize, 0, s.l, pool)
		if w == nil {
			return false
		}
		s.words[s.rootBi] = w
		for i := range s.counts {
			s.counts[i] = 0
		}
		return true
	}
	// Receive-only: any remaining letter (exactly one remains).
	for i := 0; i < s.l; i++ {
		if s.counts[i] > 0 {
			s.counts[i]--
			if countsAllZero(s.counts) {
				s.recvOnly = i
				return true
			}
			s.counts[i]++
		}
	}
	return false
}

// solveBase runs the backtracking solver over the instance's blocks with the
// exact leaf-letter multiset, in index form. It returns the words per block
// (parallel to inst.Blocks) and the receive-only letter index. It is safe to
// run concurrently on the same instance: the instance is only read.
func solveBase(inst *Instance, opts solveOpts) ([]idxWord, int, error) {
	t := inst.T
	// The alphabet spans the distinct leaf delays: exactly L letters for a
	// complete optimal tree, possibly more for the pruned trees of the L=2
	// construction (Theorem 3.5).
	l := inst.alphabet()
	counts := make([]int, l) // counts[i] = number of leaves with delay t-i
	for d, c := range inst.LeafCount {
		i := t - d
		if i < 0 || i >= l {
			return nil, 0, fmt.Errorf("continuous: leaf delay %d outside alphabet", d)
		}
		counts[i] = c
	}
	rootBi := -1
	for bi, b := range inst.Blocks {
		if b.Node == 0 {
			rootBi = bi
		}
	}
	if rootBi < 0 {
		return nil, 0, fmt.Errorf("continuous: no root block")
	}

	recvOnly := -1
	rootSize := inst.Blocks[rootBi].Size
	if opts.strong {
		if l < 2 || counts[1] < 1 {
			return nil, 0, fmt.Errorf("continuous: no 'b' leaf for a strong solution (%s)", inst.name())
		}
		counts[1]--
		recvOnly = 1
	}

	budget := opts.maxNodes
	if budget <= 0 {
		budget = 20_000_000
	}

	// Block processing order: most-constrained (smallest) first; in strong
	// mode the root block is filled last, from the leftover multiset, so
	// its sum constraint can be checked before its search begins.
	order := make([]int, 0, len(inst.Blocks))
	for bi := range inst.Blocks {
		if opts.strong && bi == rootBi {
			continue
		}
		order = append(order, bi)
	}

	s := &baseSearch{
		inst:     inst,
		t:        t,
		l:        l,
		strong:   opts.strong,
		counts:   counts,
		words:    make([]idxWord, len(inst.Blocks)),
		order:    order,
		letters:  letterOrder(l, opts.seed),
		budget:   budget,
		stop:     opts.stop,
		rootBi:   rootBi,
		rootSize: rootSize,
		recvOnly: recvOnly,

		targetConsumed: -1,
	}

	// Strong-mode sum pruning: the letters consumed by non-root words must
	// total exactly totalSum - (rootSize-L+1), so partial assignments whose
	// sum cannot reach (or already exceeds) the target are cut immediately.
	if opts.strong {
		totalSum := 0
		for i, c := range counts {
			totalSum += c * i
		}
		s.targetConsumed = totalSum - (rootSize - l + 1)
		if s.targetConsumed < 0 {
			return nil, 0, fmt.Errorf("continuous: strong sum target infeasible (%s)", inst.name())
		}
		for _, bi := range order {
			s.slotsLeft += inst.Blocks[bi].Size - 1
		}
	}

	// Precompute per-block residue tables and occupancy arrays (with the
	// uppercase/delay residue preset) so the inner search loop does no
	// modular arithmetic.
	s.resTab = make([][]int, len(inst.Blocks))
	s.seenTab = make([][]bool, len(inst.Blocks))
	for bi := range inst.Blocks {
		b := &inst.Blocks[bi]
		r := b.Size
		if r == 1 {
			s.words[bi] = idxWord{}
			continue
		}
		s.words[bi] = make(idxWord, r-1)
		tab := make([]int, (r-1)*l)
		for p := 1; p < r; p++ {
			for i := 0; i < l; i++ {
				tab[(p-1)*l+i] = mod(p-(t-i), r)
			}
		}
		s.resTab[bi] = tab
		seen := make([]bool, r)
		seen[mod(-b.Delay, r)] = true
		s.seenTab[bi] = seen
	}

	solved := s.solveFrom(0)
	mSearchRuns.Inc()
	mSearchNodes.Add(s.steps)
	mSearchPrunes.Add(s.prunes)
	if !solved {
		if s.stopped {
			return nil, 0, errCanceled
		}
		if s.budget <= 0 {
			return nil, 0, fmt.Errorf("continuous: %w (maxNodes=%d) for %s", ErrBudget, budget, inst.name())
		}
		return nil, 0, fmt.Errorf("continuous: %w for %s", ErrNoSolution, inst.name())
	}
	return s.words, s.recvOnly, nil
}

func countsAllZero(counts []int) bool {
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// Portfolio configuration for base-case search: every (budget epoch, seed)
// pair races under par.Portfolio; budgets escalate geometrically by
// budgetGrowth per epoch, capped at budgetCap times the base budget. Stuck
// backtracking runs are heavy-tailed, so many short runs with different
// letter orders beat one long run, and the genuinely infeasible instances
// (observed exactly at t = 2L for even L) exhaust their search space quickly
// rather than timing out.
const (
	portfolioSeeds = 8  // seeds raced per budget epoch in strong mode
	budgetGrowth   = 16 // geometric escalation factor between epochs
	budgetCap      = 16 // hard cap: no epoch exceeds budgetCap x base
)

// budgetLadder returns the geometric escalation schedule for a base budget:
// base, base*budgetGrowth, ... up to (and never beyond) base*budgetCap.
func budgetLadder(base int64) []int64 {
	var ladder []int64
	for b, cap := base, base*budgetCap; b <= cap; b *= budgetGrowth {
		ladder = append(ladder, b)
	}
	return ladder
}

// name is how errors name the instance: its latency and horizon, plus the
// alphabet size where that differs from L (general and pruned trees).
func (inst *Instance) name() string {
	if a := inst.alphabet(); a != inst.L {
		return fmt.Sprintf("L=%d t=%d (%d letters)", inst.L, inst.T, a)
	}
	return fmt.Sprintf("L=%d t=%d", inst.L, inst.T)
}

// solvePortfolio races the base solver across every (budget epoch, seed)
// pair — epoch-major, seed-minor, the exact order the former sequential loop
// used — on up to par.Limit() workers. Determinism: the winner is always the
// lowest-index hit (par.Portfolio cancels only attempts above a hit), so the
// returned words are identical to sequential execution for every parallelism
// level; a definitive infeasibility proof (ErrNoSolution) from any attempt
// short-circuits all workers, since exhaustion of the search space does not
// depend on the letter order.
func solvePortfolio(inst *Instance, budgets []int64, seeds int, strong bool) ([]idxWord, int, error) {
	type attemptRes struct {
		words []idxWord
		recv  int
		err   error
	}
	n := len(budgets) * seeds
	res := make([]attemptRes, n)
	winner, aborted := par.Portfolio(n, func(k int, stop *par.Stop) par.Outcome {
		words, recv, err := solveBase(inst, solveOpts{
			maxNodes: budgets[k/seeds],
			strong:   strong,
			seed:     int64(k % seeds),
			stop:     stop,
		})
		res[k] = attemptRes{words: words, recv: recv, err: err}
		switch {
		case err == nil:
			return par.Hit
		case errors.Is(err, errCanceled) || isBudgetErr(err):
			return par.Miss
		default:
			return par.Abort // exhaustive proof: no solution for any seed
		}
	})
	if aborted {
		return nil, 0, res[winner].err
	}
	if winner >= 0 {
		return res[winner].words, res[winner].recv, nil
	}
	return nil, 0, fmt.Errorf("continuous: %w (%d seeds, budgets up to %d) for %s",
		ErrBudget, seeds, budgets[len(budgets)-1], inst.name())
}

// strongSolve computes strong solutions bottom-up from t = 2L-2 to the
// target, composing I(t) from I(t-1) and I(t-L) whenever both exist
// (Section 3.3's induction) and falling back to the constrained base solver
// otherwise. The cache maps t -> solution for one latency l.
type strongSolver struct {
	l     int
	cache map[int]*strongSolution
	// baseBudget bounds each base-case search.
	baseBudget int64
}

func newStrongSolver(l int) *strongSolver {
	return &strongSolver{l: l, cache: make(map[int]*strongSolution), baseBudget: 4_000_000}
}

// strongFor returns the strong solution for (l, t), or nil. It builds every
// horizon from 2L-2 up on a solver of its own, so that the composition
// I(t) = I(t-1) ⊎ I(t-L) finds its sub-solutions; nothing outlives the call.
func strongFor(l, t int) *strongSolution {
	ss := newStrongSolver(l)
	for tt := 2*l - 2; tt <= t; tt++ {
		ss.solutionFor(tt)
	}
	return ss.cache[t]
}

// solutionFor returns a strong solution for horizon t, or nil.
func (ss *strongSolver) solutionFor(t int) *strongSolution {
	if sol, ok := ss.cache[t]; ok {
		return sol
	}
	var sol *strongSolution
	defer func() { ss.cache[t] = sol }()
	if t < 2*ss.l-2 || ss.l < 3 {
		return nil
	}
	// Composition first: it is O(size of solution).
	if prev, old := ss.cache[t-1], ss.cache[t-ss.l]; prev != nil && old != nil {
		sol = compose(ss.l, t, prev, old)
		if sol != nil {
			return sol
		}
	}
	// Double composition I(t) = I(t-2) ⊎ I(t-L-1) ⊎ I(t-L) (the single-step
	// identity iterated once) jumps over an unsolvable or unsolved t-1.
	if p2, o1, o0 := ss.cache[t-2], ss.cache[t-ss.l-1], ss.cache[t-ss.l]; p2 != nil && o1 != nil && o0 != nil {
		sol = compose2(ss.l, t, p2, o1, o0)
		if sol != nil {
			return sol
		}
	}
	// Base case by portfolio search: all seed orders race in parallel under
	// the escalating budget ladder.
	inst, err := NewInstance(ss.l, t)
	if err != nil {
		return nil
	}
	words, recvOnly, serr := solvePortfolio(inst, budgetLadder(ss.baseBudget), portfolioSeeds, true)
	if serr != nil {
		// Either every attempt exhausted its budget or the search space was
		// exhausted (definitive infeasibility); both mean no strong base.
		return nil
	}
	sol = &strongSolution{t: t, words: make(map[int][]idxWord), recvOnly: recvOnly}
	for bi, b := range inst.Blocks {
		sol.words[b.Size] = append(sol.words[b.Size], words[bi])
		if b.Node == 0 {
			sol.rootWord = words[bi]
		}
	}
	return sol
}

// compose builds the strong solution for horizon t from the solutions at
// t-1 and t-L: every word of both carries over verbatim (residues shift
// uniformly); the root word of I(t-1) grows by one 'b' (the receive-only
// letter of I(t-L)); the receive-only of I(t-1) remains receive-only. The
// grown root word is re-solved over its fixed letter multiset, which
// generalizes the paper's append-only rule for the canonical family.
func compose(l, t int, prev, old *strongSolution) *strongSolution {
	// One of the two receive-only letters is absorbed into the grown root
	// word; the other remains receive-only. A legal word for a block of size
	// r and delay 0 must have sum of letter indices ≡ -(L-1) (mod r) — the
	// residues (p + idx_p - t) together with 0 must tile Z_r, which fixes
	// the sum. (The paper's canonical family satisfies this with the
	// appended letter always 'b'.) Try both choices, prechecking the sum.
	r := t - l + 1
	sumPrev := 0
	for _, ix := range prev.rootWord {
		sumPrev += ix
	}
	var grown idxWord
	recvOnly := -1
	for _, choice := range [2]struct{ appended, kept int }{
		{old.recvOnly, prev.recvOnly},
		{prev.recvOnly, old.recvOnly},
	} {
		if mod(sumPrev+choice.appended+(l-1), r) != 0 {
			continue
		}
		grown = solveSingleWord(t, r, 0, l, append(append(idxWord{}, prev.rootWord...), choice.appended))
		if grown != nil {
			recvOnly = choice.kept
			break
		}
	}
	if grown == nil {
		return nil
	}
	sol := &strongSolution{t: t, words: make(map[int][]idxWord), recvOnly: recvOnly}
	sol.rootWord = grown
	sol.words[t-l+1] = append(sol.words[t-l+1], grown)
	for size, ws := range prev.words {
		for _, w := range ws {
			if size == t-l && sameWord(w, prev.rootWord) {
				// The old root, replaced by the grown word above. Only one
				// block has size t-l in I(t-1) (the root), so match once.
				continue
			}
			sol.words[size] = append(sol.words[size], w)
		}
	}
	for size, ws := range old.words {
		for _, w := range ws {
			sol.words[size] = append(sol.words[size], w)
		}
	}
	return sol
}

// compose2 builds I(t) from I(t-2), I(t-L-1) and I(t-L): the identity
// c(d) = c(d-1) + c(d-L) iterated once on the first term. The root of
// I(t-2) grows by two letters, drawn from two of the three sub-solutions'
// receive-only letters; the third remains receive-only.
func compose2(l, t int, p2, o1, o0 *strongSolution) *strongSolution {
	r := t - l + 1
	sumPrev := 0
	for _, ix := range p2.rootWord {
		sumPrev += ix
	}
	ros := [3]int{p2.recvOnly, o1.recvOnly, o0.recvOnly}
	var grown idxWord
	recvOnly := -1
	for keep := 0; keep < 3 && grown == nil; keep++ {
		a1, a2 := ros[(keep+1)%3], ros[(keep+2)%3]
		if mod(sumPrev+a1+a2+(l-1), r) != 0 {
			continue
		}
		grown = solveSingleWord(t, r, 0, l, append(append(idxWord{}, p2.rootWord...), a1, a2))
		if grown != nil {
			recvOnly = ros[keep]
		}
	}
	if grown == nil {
		return nil
	}
	sol := &strongSolution{t: t, words: make(map[int][]idxWord), recvOnly: recvOnly}
	sol.rootWord = grown
	sol.words[r] = append(sol.words[r], grown)
	for size, ws := range p2.words {
		for _, w := range ws {
			if size == r-2 && sameWord(w, p2.rootWord) {
				continue // the old root, replaced by the grown word
			}
			sol.words[size] = append(sol.words[size], w)
		}
	}
	for _, sub := range [2]*strongSolution{o1, o0} {
		for size, ws := range sub.words {
			for _, w := range ws {
				sol.words[size] = append(sol.words[size], w)
			}
		}
	}
	return sol
}

// solveSingleWord finds a legal word for one block (given horizon t, block
// size, block delay and letter alphabet size l) using exactly the letters of
// the given multiset. Appending to the end first keeps the common case (the
// canonical family of Lemma 3.1, closed under appending 'b') O(size); the
// fallback is a bounded DFS over position/letter choices.
func solveSingleWord(t, size, delay, l int, letters idxWord) idxWord {
	if len(letters) != size-1 {
		return nil
	}
	counts := make([]int, l)
	for _, ix := range letters {
		if ix < 0 || ix >= l {
			return nil
		}
		counts[ix]++
	}
	w := make(idxWord, size-1)
	seen := make([]bool, size)
	seen[mod(-delay, size)] = true
	budget := int64(2_000_000)
	var fill func(p int) bool
	fill = func(p int) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if p == size {
			return true
		}
		for i := l - 1; i >= 0; i-- {
			if counts[i] == 0 {
				continue
			}
			res := mod(p-(t-i), size)
			if seen[res] {
				continue
			}
			w[p-1] = i
			counts[i]--
			seen[res] = true
			if fill(p + 1) {
				return true
			}
			seen[res] = false
			counts[i]++
		}
		return false
	}
	if !fill(1) {
		return nil
	}
	return w
}

func sameWord(a, b idxWord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applySolution installs a strong solution's words into the instance's
// blocks (converting letter indices to delays) and sets the receive-only
// delay to t-1 ('b').
func applySolution(inst *Instance, sol *strongSolution) error {
	bySize := make(map[int][]idxWord, len(sol.words))
	for size, ws := range sol.words {
		bySize[size] = append([]idxWord(nil), ws...)
	}
	for bi := range inst.Blocks {
		b := &inst.Blocks[bi]
		ws := bySize[b.Size]
		if len(ws) == 0 {
			return fmt.Errorf("continuous: no word left for block of size %d", b.Size)
		}
		w := ws[len(ws)-1]
		bySize[b.Size] = ws[:len(ws)-1]
		if !legalIdxWord(inst.T, b.Size, b.Delay, w) {
			return fmt.Errorf("continuous: composed word illegal for size %d delay %d", b.Size, b.Delay)
		}
		b.Word = make([]int, len(w))
		for i, ix := range w {
			b.Word[i] = inst.T - ix
		}
	}
	for size, ws := range bySize {
		if len(ws) != 0 {
			return fmt.Errorf("continuous: %d unused words of size %d", len(ws), size)
		}
	}
	inst.RecvOnlyDelay = inst.T - sol.recvOnly
	// Verify the multiset: words + receive-only must consume the leaves.
	use := make(map[int]int)
	use[inst.RecvOnlyDelay]++
	for _, b := range inst.Blocks {
		for _, d := range b.Word {
			use[d]++
		}
	}
	for d, c := range inst.LeafCount {
		if use[d] != c {
			return fmt.Errorf("continuous: letter delay %d used %d times, have %d", d, use[d], c)
		}
	}
	for d := range use {
		if inst.LeafCount[d] == 0 {
			return fmt.Errorf("continuous: letter delay %d not a leaf delay", d)
		}
	}
	inst.solved = true
	return nil
}
