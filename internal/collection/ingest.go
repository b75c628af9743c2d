package collection

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/obs"
)

// mSkipped counts trees dropped by lenient ingest; the per-tree reason
// goes to the diagnostic sink, not a label (causes are unbounded).
var mSkipped = obs.Counter("bfhrf_ingest_skipped_total",
	"Malformed or over-limit trees skipped by lenient ingest.")

// Options hardens file ingest. The zero value is the historical behavior:
// strict parsing, no limits.
type Options struct {
	// Lenient makes Next skip malformed or over-limit trees (recording a
	// Diag for each) instead of failing the whole file. Real I/O errors —
	// unreadable file, byte-budget exhaustion — still fail fast: only
	// per-tree damage is recoverable.
	Lenient bool
	// Limits bounds each tree's serialized size and taxon count.
	Limits newick.Limits
	// MaxInputBytes caps the (decompressed) bytes read from the file per
	// pass; 0 means unlimited. Exceeding it is a hard error even in
	// lenient mode — the budget exists to stop runaway inputs, and a
	// "skip" that keeps reading would not.
	MaxInputBytes int64
	// OnDiag, when set, observes each skipped tree as it happens (for
	// streaming diagnostics files), once per statement however many
	// passes read it. Each pass's Diags are also retained on the File.
	OnDiag func(Diag)
}

func (o Options) zero() bool {
	return !o.Lenient && o.Limits == (newick.Limits{}) && o.MaxInputBytes == 0 && o.OnDiag == nil
}

// Diag records one tree skipped by lenient ingest.
type Diag struct {
	Path string
	// Tree is the 1-based ordinal of the damaged statement within the
	// file, counting both parsed and skipped trees.
	Tree int
	// Line is the 1-based line where the failure was detected (0 if
	// unknown).
	Line int
	// Reason is the parser's message.
	Reason string
	// Limit marks trees dropped by a resource limit rather than a syntax
	// error.
	Limit bool
}

func (d Diag) String() string {
	kind := "malformed"
	if d.Limit {
		kind = "over limit"
	}
	return fmt.Sprintf("%s: tree %d (line %d): %s: %s", d.Path, d.Tree, d.Line, kind, d.Reason)
}

// ErrInputBudget is wrapped by errors reported when a file exceeds
// Options.MaxInputBytes.
var ErrInputBudget = errors.New("input byte budget exceeded")

// budgetReader fails any read past max bytes. It sits below the parser's
// buffering, so the cost is one comparison per buffered refill.
type budgetReader struct {
	r         io.Reader
	remaining int64
	max       int64
	path      string
}

func newBudgetReader(r io.Reader, max int64, path string) *budgetReader {
	return &budgetReader{r: r, remaining: max, max: max, path: path}
}

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("collection: %s: %w (limit %d bytes)", b.path, ErrInputBudget, b.max)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

// OpenFileOpts is OpenFile with hardened-ingest options.
func OpenFileOpts(path string, opts Options) (*File, error) {
	fs := &File{Path: path, count: -1, opts: opts}
	if err := fs.Reset(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Diags returns the trees skipped so far in the current pass (lenient
// mode only). The slice is owned by the File; do not mutate it.
func (s *File) Diags() []Diag { return s.diags }

// Skipped returns the number of trees dropped in the current pass.
func (s *File) Skipped() int { return len(s.diags) }

// recover inspects a Read error and, in lenient mode, resynchronizes the
// stream past per-tree damage. It reports whether reading may continue.
func (s *File) recover(err error) bool {
	if !s.opts.Lenient {
		return false
	}
	var se *nexus.StatementError
	if errors.As(err, &se) {
		// The offending statement is already consumed; just record it.
		s.recordDiag(Diag{Line: se.Line, Reason: se.Err.Error(), Limit: se.Limit})
		return true
	}
	var pe *newick.ParseError
	if errors.As(err, &pe) {
		if s.nr == nil {
			return false
		}
		if skipErr := s.nr.SkipTree(); skipErr != nil && skipErr != io.EOF {
			return false
		}
		s.recordDiag(Diag{Line: pe.Line, Reason: pe.Msg, Limit: pe.Limit})
		return true
	}
	return false
}

func (s *File) recordDiag(d Diag) {
	d.Path = s.Path
	d.Tree = s.seen + len(s.diags) + 1
	s.diags = append(s.diags, d)
	// A Reset rereads the same statements; report only those no earlier
	// pass reached.
	if d.Tree <= s.reported {
		return
	}
	s.reported = d.Tree
	mSkipped.Inc()
	if s.opts.OnDiag != nil {
		s.opts.OnDiag(d)
	}
}
