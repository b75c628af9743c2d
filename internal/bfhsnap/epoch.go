package bfhsnap

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// The epoch store: a directory of immutable epoch-NNNNNN/ snapshot
// directories plus a CURRENT pointer file. An epoch is built in a hidden
// .tmp-epoch-NNNNNN/ staging directory, fsynced, renamed into place, and
// only then named by CURRENT — two atomic renames, so at every instant
// CURRENT names a complete, fully fsynced epoch and a crash never leaves a
// partially visible one (ARCHITECTURE.md, failure-model promise 4).
// Readers pin the current epoch; Delta publishes a successor reusing
// unchanged part files via hard links (copy-on-write per part) and the
// superseded epoch is reaped once its last pin is released.

const (
	currentFile  = "CURRENT"
	manifestFile = "MANIFEST"
	epochPrefix  = "epoch-"
	tmpPrefix    = ".tmp-epoch-"

	// LayoutTable marks an epoch whose parts are contiguous shard ranges
	// of one hash (bfhrf, single node). LayoutWorker marks one part per
	// distributed worker, each a complete stream of that worker's partial
	// hash (bfhrfd).
	LayoutTable  = "table"
	LayoutWorker = "worker"

	// maxTableParts bounds how many part files a table-layout epoch is
	// split into. More parts mean finer copy-on-write reuse for deltas;
	// the cap keeps tiny tables from scattering into per-shard files.
	maxTableParts = 16
)

// Manifest is the epoch's authoritative metadata (MANIFEST, a JSON file).
// Totals live here, not in the part headers: copy-on-write hard-links
// part files from older epochs whose embedded headers are stale.
type Manifest struct {
	Version    int    `json:"version"`
	Epoch      int    `json:"epoch"`
	Layout     string `json:"layout"`
	Backend    string `json:"backend"`
	Weighted   bool   `json:"weighted"`
	Trees      int    `json:"trees"`
	Sum        uint64 `json:"sum"`
	LenSumBits uint64 `json:"len_sum_bits"`
	Taxa       int    `json:"taxa"`
	Shards     int    `json:"shards"`
	// Fingerprint is core.FreqHash.Fingerprint for table layout and the
	// coordinator's collection fingerprint for worker layout.
	Fingerprint uint64         `json:"fingerprint"`
	Parts       []ManifestPart `json:"parts"`
}

// ManifestPart names one part file and the shard range it carries
// ([From, To); worker layout uses the full range in every part).
type ManifestPart struct {
	File string `json:"file"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// LenSum decodes the exact weighted total.
func (m *Manifest) LenSum() float64 { return math.Float64frombits(m.LenSumBits) }

// Store manages the epoch directory. Pin counts and obsolescence marks
// are in-process state: epochs are only reaped by the process that
// obsoleted them (or by an explicit Compact), never from under another
// process's reader.
type Store struct {
	dir string

	mu       sync.Mutex
	current  int // 0 = no epoch published yet
	pins     map[int]int
	obsolete map[int]bool
}

// Open opens (creating if needed) an epoch store at dir and runs crash
// recovery: leftover staging directories are removed, and any epoch
// directory numbered above CURRENT — a publish that crashed between the
// directory rename and the CURRENT update — is deleted, since nothing
// ever named it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bfhsnap: %w", err)
	}
	s := &Store{dir: dir, pins: map[int]int{}, obsolete: map[int]bool{}}
	cur, err := s.readCurrent()
	if err != nil {
		return nil, err
	}
	s.current = cur
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bfhsnap: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("bfhsnap: clearing stale staging dir: %w", err)
			}
		case strings.HasPrefix(name, epochPrefix):
			if n, ok := parseEpoch(name); ok && n > cur {
				if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
					return nil, fmt.Errorf("bfhsnap: clearing unpublished epoch: %w", err)
				}
			}
		}
	}
	s.updateGauge()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Reload re-reads the CURRENT pointer from disk, picking up epochs
// published by another process (a delta or compact run) since Open.
// Unlike Open it never deletes anything — a concurrent publisher may
// legitimately own staging directories and not-yet-current epochs — so
// it is safe to call from a long-lived serving process at any time.
// Existing pins are unaffected.
func (s *Store) Reload() error {
	cur, err := s.readCurrent()
	if err != nil {
		return err
	}
	s.mu.Lock()
	if cur > s.current {
		s.current = cur
	}
	s.mu.Unlock()
	s.updateGauge()
	return nil
}

// Current returns the published epoch number (0 when the store is empty).
func (s *Store) Current() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

func epochName(n int) string { return fmt.Sprintf("%s%06d", epochPrefix, n) }

func parseEpoch(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(name, epochPrefix))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

func (s *Store) epochDir(n int) string { return filepath.Join(s.dir, epochName(n)) }

func (s *Store) readCurrent() (int, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, currentFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("bfhsnap: %w", err)
	}
	name := strings.TrimSpace(string(b))
	n, ok := parseEpoch(name)
	if !ok {
		return 0, fmt.Errorf("bfhsnap: CURRENT names %q, not an epoch directory", name)
	}
	if _, err := os.Stat(filepath.Join(s.dir, name, manifestFile)); err != nil {
		return 0, fmt.Errorf("bfhsnap: CURRENT names %s but its manifest is unreadable: %w", name, err)
	}
	return n, nil
}

// epochsOnDisk lists published epoch numbers, ascending.
func (s *Store) epochsOnDisk() []int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		if n, ok := parseEpoch(e.Name()); ok && strings.HasPrefix(e.Name(), epochPrefix) {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

func (s *Store) updateGauge() { mEpochActive.Set(float64(len(s.epochsOnDisk()))) }

// Manifest reads epoch n's manifest.
func (s *Store) Manifest(n int) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(s.epochDir(n), manifestFile))
	if err != nil {
		return nil, fmt.Errorf("bfhsnap: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bfhsnap: epoch %d manifest: %w", n, err)
	}
	if m.Epoch != n {
		return nil, fmt.Errorf("bfhsnap: epoch %d manifest declares epoch %d", n, m.Epoch)
	}
	if m.Layout != LayoutTable && m.Layout != LayoutWorker {
		return nil, fmt.Errorf("bfhsnap: epoch %d has unknown layout %q", n, m.Layout)
	}
	if m.Backend == retiredMapBackend {
		return nil, fmt.Errorf("bfhsnap: epoch %d manifest backend %q: %s", n, m.Backend, retiredMapGuidance)
	}
	if len(m.Parts) == 0 {
		return nil, fmt.Errorf("bfhsnap: epoch %d manifest lists no parts", n)
	}
	return &m, nil
}

// PartPath resolves a manifest part to its on-disk path.
func (s *Store) PartPath(n int, p ManifestPart) string {
	return filepath.Join(s.epochDir(n), p.File)
}

// partSource describes how one part file of a new epoch is produced:
// either freshly written by write, or hard-linked (copy-on-write) from
// linkFrom, an existing file in an older epoch.
type partSource struct {
	name     string
	linkFrom string
	write    func(w io.Writer) error
}

// publish stages a new epoch directory, fsyncs it, renames it into place,
// and flips CURRENT. Returns the new epoch number. The two fault points
// (before the directory rename and before the CURRENT rename) let chaos
// schedules kill the process in each publish window.
func (s *Store) publish(man *Manifest, parts []partSource) (int, error) {
	s.mu.Lock()
	n := s.current + 1
	s.mu.Unlock()

	man.Version = FormatVersion
	man.Epoch = n
	tmp := filepath.Join(s.dir, tmpPrefix+fmt.Sprintf("%06d", n))
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("bfhsnap: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("bfhsnap: %w", err)
	}
	cleanup := true
	defer func() {
		if cleanup {
			os.RemoveAll(tmp)
		}
	}()

	for _, p := range parts {
		dst := filepath.Join(tmp, p.name)
		if p.linkFrom != "" {
			if err := linkOrCopy(p.linkFrom, dst); err != nil {
				return 0, err
			}
			continue
		}
		if err := writePartFile(dst, p.write); err != nil {
			return 0, err
		}
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("bfhsnap: %w", err)
	}
	if err := writePartFile(filepath.Join(tmp, manifestFile), func(w io.Writer) error {
		_, werr := w.Write(append(mb, '\n'))
		return werr
	}); err != nil {
		return 0, err
	}
	syncDir(tmp)

	if err := faultinject.Hit(faultinject.PointSnapRename); err != nil {
		return 0, fmt.Errorf("bfhsnap: publishing epoch %d: %w", n, err)
	}
	final := s.epochDir(n)
	os.RemoveAll(final) // an unpublished leftover only; recovery removes these too
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("bfhsnap: %w", err)
	}
	cleanup = false
	syncDir(s.dir)

	if err := faultinject.Hit(faultinject.PointSnapRename); err != nil {
		return 0, fmt.Errorf("bfhsnap: naming epoch %d current: %w", n, err)
	}
	if err := s.writeCurrent(n); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.current = n
	s.mu.Unlock()
	s.updateGauge()
	return n, nil
}

// writeCurrent atomically points CURRENT at epoch n.
func (s *Store) writeCurrent(n int) error {
	path := filepath.Join(s.dir, currentFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(epochName(n)+"\n"), 0o644); err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// writePartFile writes one staged file with an fsync before returning;
// durability of the whole epoch is sealed by the later directory fsyncs.
func writePartFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bfhsnap: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("bfhsnap: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bfhsnap: closing %s: %w", path, err)
	}
	return nil
}

// linkOrCopy hard-links src to dst (the copy-on-write reuse path),
// falling back to a byte copy on filesystems without hard links.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	defer in.Close()
	return writePartFile(dst, func(w io.Writer) error {
		_, cerr := io.Copy(w, in)
		return cerr
	})
}

// syncDir best-effort fsyncs a directory so just-created or just-renamed
// entries are durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// manifestFor captures h's metadata for a table-layout epoch.
func manifestFor(h *core.FreqHash) *Manifest {
	return &Manifest{
		Layout:      LayoutTable,
		Backend:     h.Backend().String(),
		Weighted:    h.Weighted(),
		Trees:       h.NumTrees(),
		Sum:         h.TotalBipartitions(),
		LenSumBits:  math.Float64bits(h.TotalLengthSum()),
		Taxa:        h.Taxa().Len(),
		Shards:      h.NumShards(),
		Fingerprint: h.Fingerprint(),
	}
}

// tableParts splits shards across at most maxTableParts contiguous
// ranges — the copy-on-write grain for delta builds.
func tableParts(shards int) []ManifestPart {
	nparts := shards
	if nparts > maxTableParts {
		nparts = maxTableParts
	}
	parts := make([]ManifestPart, 0, nparts)
	for i := 0; i < nparts; i++ {
		from := shards * i / nparts
		to := shards * (i + 1) / nparts
		parts = append(parts, ManifestPart{File: fmt.Sprintf("part-%04d.bfh", i), From: from, To: to})
	}
	return parts
}

// SaveEpoch publishes a full table-layout snapshot of h as the next
// epoch. Earlier epochs are left on disk (instant rollback material)
// until Compact or a delta obsoletes them.
func (s *Store) SaveEpoch(h *core.FreqHash) (int, error) {
	man := manifestFor(h)
	man.Parts = tableParts(h.NumShards())
	parts := make([]partSource, 0, len(man.Parts))
	for _, p := range man.Parts {
		from, to := p.From, p.To
		parts = append(parts, partSource{name: p.File, write: func(w io.Writer) error {
			_, err := WriteStream(w, h, from, to)
			return err
		}})
	}
	return s.publish(man, parts)
}

// PublishWorkerEpoch publishes a worker-layout epoch: one complete
// snapshot stream per distributed worker, written by the given writers.
// man.Fingerprint is the coordinator's collection fingerprint. Writers
// run in order, and all of them before MANIFEST is serialized, so a
// caller that only learns totals (shards, weighted, length sums) while
// streaming its parts may fill the manifest from inside its writers.
func (s *Store) PublishWorkerEpoch(man *Manifest, writers []func(w io.Writer) error) (int, error) {
	man.Layout = LayoutWorker
	man.Parts = make([]ManifestPart, 0, len(writers))
	parts := make([]partSource, 0, len(writers))
	for i, wr := range writers {
		i, wr := i, wr
		name := fmt.Sprintf("worker-%04d.bfh", i)
		man.Parts = append(man.Parts, ManifestPart{File: name, From: 0, To: man.Shards})
		parts = append(parts, partSource{name: name, write: func(w io.Writer) error {
			if err := wr(w); err != nil {
				return err
			}
			man.Parts[i].To = man.Shards // writers may have just learned the shard count
			return nil
		}})
	}
	return s.publish(man, parts)
}

// Epoch is a pinned, loaded snapshot: an exclusive in-memory hash (each
// Pin loads its own copy) plus the refcount that delays reaping of the
// on-disk directory while any reader might still re-open part files.
type Epoch struct {
	N        int
	Hash     *core.FreqHash
	Manifest *Manifest
	store    *Store
	released bool
}

// Pin loads the current epoch and holds a reference to its directory.
// The returned hash is the caller's own copy — mutating it (delta builds
// do) never affects other pins. Callers must Release when done.
func (s *Store) Pin() (*Epoch, error) {
	s.mu.Lock()
	n := s.current
	if n == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("bfhsnap: store %s has no published epoch", s.dir)
	}
	s.pins[n]++
	s.mu.Unlock()

	e, err := s.loadEpoch(n)
	if err != nil {
		s.unpin(n)
		return nil, err
	}
	return e, nil
}

func (s *Store) loadEpoch(n int) (*Epoch, error) {
	start := time.Now()
	man, err := s.Manifest(n)
	if err != nil {
		return nil, err
	}
	if man.Layout != LayoutTable {
		return nil, fmt.Errorf("bfhsnap: epoch %d has %q layout (a distributed snapshot); load it with bfhrfd", n, man.Layout)
	}
	hdr, err := ReadHeaderFile(s.PartPath(n, man.Parts[0]))
	if err != nil {
		return nil, err
	}
	l, err := NewLoader(hdr)
	if err != nil {
		return nil, err
	}
	l.OverrideTotals(man.Trees, man.Sum, man.LenSum(), man.Weighted)
	for _, p := range man.Parts {
		if err := s.readPart(l, n, p); err != nil {
			return nil, err
		}
	}
	h, err := l.Finish()
	if err != nil {
		return nil, err
	}
	if got := h.Fingerprint(); got != man.Fingerprint {
		return nil, fmt.Errorf("bfhsnap: epoch %d fingerprint %016x, manifest declares %016x", n, got, man.Fingerprint)
	}
	mSnapshotLoadSeconds.Observe(time.Since(start).Seconds())
	return &Epoch{N: n, Hash: h, Manifest: man, store: s}, nil
}

func (s *Store) readPart(l *Loader, n int, p ManifestPart) error {
	f, size, err := openSized(s.PartPath(n, p))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.ReadStream(bufio.NewReaderSize(f, 1<<20), size); err != nil {
		return fmt.Errorf("bfhsnap: epoch %d part %s: %w", n, p.File, err)
	}
	return nil
}

// Release drops the pin. If the epoch was obsoleted (superseded by a
// delta or marked by Compact) and this was the last pin, its directory is
// reaped.
func (e *Epoch) Release() {
	if e.released {
		return
	}
	e.released = true
	e.store.unpin(e.N)
}

func (s *Store) unpin(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[n]--
	if s.pins[n] <= 0 {
		delete(s.pins, n)
		if s.obsolete[n] && n != s.current {
			s.reapLocked(n)
		}
	}
}

// markObsolete flags n for reaping once unpinned (immediately if already
// unpinned).
func (s *Store) markObsolete(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 || n == s.current {
		return
	}
	s.obsolete[n] = true
	if s.pins[n] == 0 {
		s.reapLocked(n)
	}
}

// reapLocked removes epoch n's directory. Requires s.mu. A failed or
// fault-injected removal leaves the directory for the next Compact; the
// crash window (partially deleted directory) is harmless because nothing
// names a non-CURRENT epoch.
func (s *Store) reapLocked(n int) {
	if err := faultinject.Hit(faultinject.PointSnapReap); err != nil {
		return
	}
	os.RemoveAll(s.epochDir(n))
	delete(s.obsolete, n)
	s.updateGauge()
}

// Compact reaps every non-current epoch that is not pinned, and marks
// pinned ones for reaping on their last Release. Returns how many epoch
// directories remain on disk.
func (s *Store) Compact() int {
	s.mu.Lock()
	cur := s.current
	for _, n := range s.epochsOnDisk() {
		if n == cur {
			continue
		}
		if s.pins[n] > 0 {
			s.obsolete[n] = true
			continue
		}
		s.reapLocked(n)
	}
	s.mu.Unlock()
	s.updateGauge()
	return len(s.epochsOnDisk())
}
