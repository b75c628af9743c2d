package bfhsnap

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/bfhtable"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/taxa"
)

// Section framing: kind u8, payload length u32, payload, CRC32-C over
// kind+length+payload. Every section's length is computable before its
// first payload byte, so the writer streams — it never buffers a shard.
// The whole-file digest is CRC32-C over every byte from the magic through
// the last pre-footer section.

const frameLen = 5 // kind u8 + payload length u32

// sectionWriter frames sections over w, tracking the section CRC and the
// whole-file digest.
type sectionWriter struct {
	w        io.Writer
	digest   hash.Hash32 // magic through last pre-footer byte
	crc      hash.Hash32 // current section
	sections int
	n        int64
	scratch  []byte // big-endian-host encode buffer
	tmp      [frameLen]byte
}

func newSectionWriter(w io.Writer) (*sectionWriter, error) {
	sw := &sectionWriter{w: w, digest: crc32.New(castagnoli), crc: crc32.New(castagnoli)}
	if err := sw.raw([]byte(Magic), true); err != nil {
		return nil, err
	}
	return sw, nil
}

// raw writes p, folding it into the running digest when inDigest.
func (sw *sectionWriter) raw(p []byte, inDigest bool) error {
	if _, err := sw.w.Write(p); err != nil {
		return fmt.Errorf("bfhsnap: write: %w", err)
	}
	if inDigest {
		sw.digest.Write(p)
	}
	sw.n += int64(len(p))
	return nil
}

// begin opens a section of the exact payload length; chunk calls must
// supply payloadLen bytes in total before end. The fault point fires here,
// once per section, so crash plans can kill a save mid-file.
func (sw *sectionWriter) begin(kind byte, payloadLen int) error {
	if err := faultinject.Hit(faultinject.PointSnapWrite); err != nil {
		return fmt.Errorf("bfhsnap: section write: %w", err)
	}
	if payloadLen < 0 || int64(payloadLen) > maxSectionLen {
		return fmt.Errorf("bfhsnap: section %d payload %d exceeds format bound", kind, payloadLen)
	}
	sw.tmp[0] = kind
	binary.LittleEndian.PutUint32(sw.tmp[1:], uint32(payloadLen))
	sw.crc.Reset()
	sw.crc.Write(sw.tmp[:frameLen])
	return sw.raw(sw.tmp[:frameLen], kind != secFooter)
}

// chunk writes part of the current section's payload.
func (sw *sectionWriter) chunk(kind byte, p []byte) error {
	sw.crc.Write(p)
	return sw.raw(p, kind != secFooter)
}

// end closes the current section with its CRC.
func (sw *sectionWriter) end(kind byte) error {
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], sw.crc.Sum32())
	if err := sw.raw(c[:], kind != secFooter); err != nil {
		return err
	}
	sw.sections++
	return nil
}

// section writes a fully materialized (small) section.
func (sw *sectionWriter) section(kind byte, payload []byte) error {
	if err := sw.begin(kind, len(payload)); err != nil {
		return err
	}
	if err := sw.chunk(kind, payload); err != nil {
		return err
	}
	return sw.end(kind)
}

// footer seals the stream: section count + whole-file digest. The digest
// is taken before any footer byte is written, so it covers exactly the
// bytes preceding the footer.
func (sw *sectionWriter) footer() error {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[0:], uint32(sw.sections))
	binary.LittleEndian.PutUint32(p[4:], sw.digest.Sum32())
	return sw.section(secFooter, p[:])
}

// shardHeader renders the 32-byte fixed header of a shard section. The
// trailing pad keeps the arrays that follow 8-aligned within the payload.
func shardHeader(shard, capacity, used, live, extra int) []byte {
	p := make([]byte, 32)
	binary.LittleEndian.PutUint32(p[0:], uint32(shard))
	binary.LittleEndian.PutUint32(p[4:], uint32(capacity))
	binary.LittleEndian.PutUint32(p[8:], uint32(used))
	binary.LittleEndian.PutUint32(p[12:], uint32(live))
	binary.LittleEndian.PutUint32(p[16:], uint32(extra)) // nw (OA) or arena length (succinct)
	return p
}

// headerFor captures h's stream header for the shard range [from, to).
func headerFor(h *core.FreqHash, from, to int) *Header {
	return &Header{
		Version:   FormatVersion,
		Backend:   h.Backend(),
		Weighted:  h.Weighted(),
		Frozen:    h.Succinct() != nil && h.Succinct().Frozen(),
		Shards:    h.NumShards(),
		ShardFrom: from,
		ShardTo:   to,
		Trees:     h.NumTrees(),
		Sum:       h.TotalBipartitions(),
		LenSum:    h.TotalLengthSum(),
		TaxaNames: h.Taxa().Names(),
	}
}

// WriteStream serializes shards [from, to) of h to w as one snapshot
// stream and returns the bytes written. The full hash is from=0,
// to=h.NumShards(); epoch part files carry narrower ranges. The hash must
// not be mutated during the call.
func WriteStream(w io.Writer, h *core.FreqHash, from, to int) (int64, error) {
	shards := h.NumShards()
	if from < 0 || from >= to || to > shards {
		return 0, fmt.Errorf("bfhsnap: shard range [%d,%d) of %d", from, to, shards)
	}
	sw, err := newSectionWriter(w)
	if err != nil {
		return sw0(sw), err
	}
	hp, err := encodeHeader(headerFor(h, from, to))
	if err != nil {
		return sw.n, err
	}
	if err := sw.section(secHeader, hp); err != nil {
		return sw.n, err
	}
	if st := h.Succinct(); st != nil {
		if st.Frozen() {
			if err := sw.section(secDict, encodeDict(st.DictEntries())); err != nil {
				return sw.n, err
			}
		}
		for s := from; s < to; s++ {
			if err := writeSuccShard(sw, st, s); err != nil {
				return sw.n, err
			}
		}
	} else {
		for s := from; s < to; s++ {
			if err := writeOAShard(sw, h.OpenAddr(), s); err != nil {
				return sw.n, err
			}
		}
	}
	if err := sw.footer(); err != nil {
		return sw.n, err
	}
	mSnapshotBytesSave.Add(uint64(sw.n))
	return sw.n, nil
}

func sw0(sw *sectionWriter) int64 {
	if sw == nil {
		return 0
	}
	return sw.n
}

func writeOAShard(sw *sectionWriter, t *bfhtable.Table, s int) error {
	exp := t.ExportShard(s)
	capacity := len(exp.Hashes)
	nw := t.WordsPerKey()
	payload := 32 + capacity*8 + capacity*nw*8 + capacity*entrySize
	if err := sw.begin(secOAShard, payload); err != nil {
		return err
	}
	if err := sw.chunk(secOAShard, shardHeader(s, capacity, exp.Used, exp.Live, nw)); err != nil {
		return err
	}
	var b []byte
	b, sw.scratch = u64sBytes(exp.Hashes, sw.scratch)
	if err := sw.chunk(secOAShard, b); err != nil {
		return err
	}
	b, sw.scratch = u64sBytes(exp.Words, sw.scratch)
	if err := sw.chunk(secOAShard, b); err != nil {
		return err
	}
	b, sw.scratch = entriesBytes(exp.Entries, sw.scratch)
	if err := sw.chunk(secOAShard, b); err != nil {
		return err
	}
	return sw.end(secOAShard)
}

func writeSuccShard(sw *sectionWriter, t *bfhtable.SuccinctTable, s int) error {
	exp := t.ExportShard(s)
	capacity := len(exp.Hashes)
	payload := 32 + capacity*8 + capacity*4 + capacity*4 + capacity*entrySize + len(exp.Arena)
	if err := sw.begin(secSuccShard, payload); err != nil {
		return err
	}
	if err := sw.chunk(secSuccShard, shardHeader(s, capacity, exp.Used, exp.Live, len(exp.Arena))); err != nil {
		return err
	}
	var b []byte
	b, sw.scratch = u64sBytes(exp.Hashes, sw.scratch)
	if err := sw.chunk(secSuccShard, b); err != nil {
		return err
	}
	b, sw.scratch = u32sBytes(exp.Meta, sw.scratch)
	if err := sw.chunk(secSuccShard, b); err != nil {
		return err
	}
	b, sw.scratch = u32sBytes(exp.Offs, sw.scratch)
	if err := sw.chunk(secSuccShard, b); err != nil {
		return err
	}
	b, sw.scratch = entriesBytes(exp.Entries, sw.scratch)
	if err := sw.chunk(secSuccShard, b); err != nil {
		return err
	}
	if err := sw.chunk(secSuccShard, exp.Arena); err != nil {
		return err
	}
	return sw.end(secSuccShard)
}

func encodeDict(dict [][]byte) []byte {
	p := make([]byte, 4, 4+16*len(dict))
	binary.LittleEndian.PutUint32(p, uint32(len(dict)))
	for _, e := range dict {
		p = binary.AppendUvarint(p, uint64(len(e)))
		p = append(p, e...)
	}
	return p
}

func decodeDict(p []byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("bfhsnap: dictionary section is %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p))
	q := p[4:]
	if count < 0 || count > len(q) {
		return nil, fmt.Errorf("bfhsnap: dictionary declares %d entries in %d bytes", count, len(q))
	}
	dict := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		l, n := binary.Uvarint(q)
		if n <= 0 || l > uint64(len(q)-n) {
			return nil, fmt.Errorf("bfhsnap: dictionary entry %d truncated", i)
		}
		// Copy: the dictionary outlives the section buffer's aliasing
		// guarantees and is tiny (≤256 short prefixes).
		dict = append(dict, append([]byte(nil), q[n:n+int(l)]...))
		q = q[n+int(l):]
	}
	if len(q) != 0 {
		return nil, fmt.Errorf("bfhsnap: %d trailing bytes after dictionary", len(q))
	}
	return dict, nil
}

// sectionReader un-frames sections from r. size, when >= 0, is the total
// stream length; declared payload lengths beyond the bytes remaining are
// rejected before any allocation, so a corrupt stream cannot demand an
// arbitrarily large buffer.
type sectionReader struct {
	r         io.Reader
	remaining int64 // -1 when unknown
	n         int64 // bytes consumed
	digest    hash.Hash32
	sections  int
	preFooter uint32 // digest value captured when the footer frame starts
}

func newSectionReader(r io.Reader, size int64) (*sectionReader, error) {
	sr := &sectionReader{r: r, remaining: size, digest: crc32.New(castagnoli)}
	var magic [len(Magic)]byte
	if err := sr.readFull(magic[:]); err != nil {
		return nil, fmt.Errorf("bfhsnap: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("bfhsnap: bad magic %q", magic[:])
	}
	sr.digest.Write(magic[:])
	return sr, nil
}

func (sr *sectionReader) readFull(p []byte) error {
	if sr.remaining >= 0 {
		if int64(len(p)) > sr.remaining {
			return fmt.Errorf("bfhsnap: need %d bytes, stream has %d left", len(p), sr.remaining)
		}
		sr.remaining -= int64(len(p))
	}
	n, err := io.ReadFull(sr.r, p)
	sr.n += int64(n)
	return err
}

// next returns the next section's kind and payload. The payload buffer is
// freshly allocated per section and 8-aligned in practice (the arrays the
// loader aliases out of it keep it alive); the CRC is verified before it
// is returned.
func (sr *sectionReader) next() (byte, []byte, error) {
	var frame [frameLen]byte
	if err := sr.readFull(frame[:]); err != nil {
		return 0, nil, fmt.Errorf("bfhsnap: reading section frame: %w", err)
	}
	kind := frame[0]
	if kind == secFooter {
		// The digest covers everything before the footer; snapshot it
		// before folding footer bytes in (which we then simply don't).
		sr.preFooter = sr.digest.Sum32()
	} else {
		sr.digest.Write(frame[:])
	}
	payloadLen := int64(binary.LittleEndian.Uint32(frame[1:]))
	if payloadLen > maxSectionLen {
		return 0, nil, fmt.Errorf("bfhsnap: section %d payload %d exceeds format bound", kind, payloadLen)
	}
	if sr.remaining >= 0 && payloadLen+4 > sr.remaining {
		return 0, nil, fmt.Errorf("bfhsnap: section %d declares %d payload bytes, stream has %d left",
			kind, payloadLen, sr.remaining)
	}
	payload := make([]byte, payloadLen)
	if err := sr.readFull(payload); err != nil {
		return 0, nil, fmt.Errorf("bfhsnap: reading section %d payload: %w", kind, err)
	}
	var crcb [4]byte
	if err := sr.readFull(crcb[:]); err != nil {
		return 0, nil, fmt.Errorf("bfhsnap: reading section %d crc: %w", kind, err)
	}
	c := crc32.New(castagnoli)
	c.Write(frame[:])
	c.Write(payload)
	if got, want := c.Sum32(), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return 0, nil, fmt.Errorf("bfhsnap: section %d crc %08x, stored %08x", kind, got, want)
	}
	if kind != secFooter {
		sr.digest.Write(payload)
		sr.digest.Write(crcb[:])
	}
	sr.sections++
	return kind, payload, nil
}

// checkFooter verifies the footer payload against the stream read so far.
func (sr *sectionReader) checkFooter(p []byte) error {
	if len(p) != 8 {
		return fmt.Errorf("bfhsnap: footer payload is %d bytes, want 8", len(p))
	}
	wantSections := binary.LittleEndian.Uint32(p[0:])
	if got := uint32(sr.sections - 1); got != wantSections { // footer excluded
		return fmt.Errorf("bfhsnap: stream has %d sections, footer declares %d", got, wantSections)
	}
	if want := binary.LittleEndian.Uint32(p[4:]); sr.preFooter != want {
		return fmt.Errorf("bfhsnap: file digest %08x, footer declares %08x", sr.preFooter, want)
	}
	return nil
}

// Loader reassembles a hash from one or more snapshot streams (the parts
// of an epoch). Every stream must describe the same hash; their shard
// ranges together must cover every shard exactly once. Totals default to
// the first stream's header and can be overridden from an epoch MANIFEST.
type Loader struct {
	hdr *Header
	ts  *taxa.Set
	oa  *bfhtable.Table
	st  *bfhtable.SuccinctTable

	trees    int
	sum      uint64
	lenSum   float64
	weighted bool

	gotDict bool
	covered []bool
}

// NewLoader prepares a loader for streams matching hdr (typically the
// first part's header, via ReadHeader).
func NewLoader(hdr *Header) (*Loader, error) {
	ts, err := taxa.NewSet(hdr.TaxaNames)
	if err != nil {
		return nil, fmt.Errorf("bfhsnap: snapshot taxa: %w", err)
	}
	l := &Loader{
		hdr: hdr, ts: ts,
		trees: hdr.Trees, sum: hdr.Sum, lenSum: hdr.LenSum, weighted: hdr.Weighted,
		covered: make([]bool, hdr.Shards),
	}
	if hdr.Backend == core.BackendSuccinct {
		l.st = bfhtable.NewSuccinct(ts.Len(), hdr.Shards)
	} else {
		l.oa = bfhtable.New((ts.Len()+63)/64, hdr.Shards)
	}
	return l, nil
}

// OverrideTotals replaces the header-derived totals with authoritative
// ones (an epoch MANIFEST's); call before Finish.
func (l *Loader) OverrideTotals(trees int, sum uint64, lenSum float64, weighted bool) {
	l.trees, l.sum, l.lenSum, l.weighted = trees, sum, lenSum, weighted
}

// ReadStream consumes one snapshot stream (a whole file or one epoch
// part), installing its sections. size bounds allocations; pass the file
// length, or -1 if genuinely unknown.
func (l *Loader) ReadStream(r io.Reader, size int64) error {
	sr, err := newSectionReader(r, size)
	if err != nil {
		return err
	}
	kind, payload, err := sr.next()
	if err != nil {
		return err
	}
	if kind != secHeader {
		return fmt.Errorf("bfhsnap: first section is kind %d, want header", kind)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return err
	}
	if err := l.hdr.sameHash(hdr); err != nil {
		return err
	}
	return l.readSections(sr, hdr)
}

// readSections consumes the remaining sections of a stream whose header
// has already been read and checked.
func (l *Loader) readSections(sr *sectionReader, hdr *Header) error {
	for {
		kind, payload, err := sr.next()
		if err != nil {
			return err
		}
		switch kind {
		case secHeader:
			return fmt.Errorf("bfhsnap: duplicate header section")
		case secDict:
			if l.st == nil {
				return fmt.Errorf("bfhsnap: dictionary section for backend %v", l.hdr.Backend)
			}
			if l.gotDict {
				continue // identical across parts; first install wins
			}
			dict, err := decodeDict(payload)
			if err != nil {
				return err
			}
			if err := l.st.InstallDict(dict); err != nil {
				return fmt.Errorf("bfhsnap: %w", err)
			}
			l.gotDict = true
		case secOAShard:
			if err := l.installOAShard(hdr, payload); err != nil {
				return err
			}
		case secSuccShard:
			if err := l.installSuccShard(hdr, payload); err != nil {
				return err
			}
		case retiredMapSection:
			return fmt.Errorf("bfhsnap: section kind %d (map entry stream): %s", kind, retiredMapGuidance)
		case secFooter:
			if err := sr.checkFooter(payload); err != nil {
				return err
			}
			mSnapshotBytesLoad.Add(uint64(sr.n))
			return nil
		default:
			return fmt.Errorf("bfhsnap: unknown section kind %d", kind)
		}
	}
}

// claimShard validates a shard section's index against the stream's
// declared range and marks it covered.
func (l *Loader) claimShard(hdr *Header, s int) error {
	if s < hdr.ShardFrom || s >= hdr.ShardTo {
		return fmt.Errorf("bfhsnap: shard %d outside stream range [%d,%d)", s, hdr.ShardFrom, hdr.ShardTo)
	}
	if l.covered[s] {
		return fmt.Errorf("bfhsnap: shard %d appears twice", s)
	}
	l.covered[s] = true
	return nil
}

func (l *Loader) installOAShard(hdr *Header, p []byte) error {
	if l.oa == nil {
		return fmt.Errorf("bfhsnap: open-addressing shard for backend %v", l.hdr.Backend)
	}
	if len(p) < 32 {
		return fmt.Errorf("bfhsnap: shard section is %d bytes", len(p))
	}
	s := int(binary.LittleEndian.Uint32(p[0:]))
	capacity := int(binary.LittleEndian.Uint32(p[4:]))
	used := int(binary.LittleEndian.Uint32(p[8:]))
	live := int(binary.LittleEndian.Uint32(p[12:]))
	nw := int(binary.LittleEndian.Uint32(p[16:]))
	if nw != l.oa.WordsPerKey() {
		return fmt.Errorf("bfhsnap: shard %d has %d-word keys, catalogue needs %d", s, nw, l.oa.WordsPerKey())
	}
	if capacity < 0 || len(p) != 32+capacity*8+capacity*nw*8+capacity*entrySize {
		return fmt.Errorf("bfhsnap: shard %d section is %d bytes for capacity %d", s, len(p), capacity)
	}
	if err := l.claimShard(hdr, s); err != nil {
		return err
	}
	off := 32
	hashes := u64sView(p[off : off+capacity*8])
	off += capacity * 8
	words := u64sView(p[off : off+capacity*nw*8])
	off += capacity * nw * 8
	entries := entriesView(p[off:])
	err := l.oa.InstallShard(s, bfhtable.TableShard{
		Hashes: hashes, Words: words, Entries: entries, Used: used, Live: live,
	})
	if err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	return nil
}

func (l *Loader) installSuccShard(hdr *Header, p []byte) error {
	if l.st == nil {
		return fmt.Errorf("bfhsnap: succinct shard for backend %v", l.hdr.Backend)
	}
	if len(p) < 32 {
		return fmt.Errorf("bfhsnap: shard section is %d bytes", len(p))
	}
	s := int(binary.LittleEndian.Uint32(p[0:]))
	capacity := int(binary.LittleEndian.Uint32(p[4:]))
	used := int(binary.LittleEndian.Uint32(p[8:]))
	live := int(binary.LittleEndian.Uint32(p[12:]))
	arenaLen := int(binary.LittleEndian.Uint32(p[16:]))
	if capacity < 0 || arenaLen < 0 ||
		len(p) != 32+capacity*8+capacity*4+capacity*4+capacity*entrySize+arenaLen {
		return fmt.Errorf("bfhsnap: shard %d section is %d bytes for capacity %d arena %d", s, len(p), capacity, arenaLen)
	}
	if err := l.claimShard(hdr, s); err != nil {
		return err
	}
	off := 32
	hashes := u64sView(p[off : off+capacity*8])
	off += capacity * 8
	meta := u32sView(p[off : off+capacity*4])
	off += capacity * 4
	offs := u32sView(p[off : off+capacity*4])
	off += capacity * 4
	entries := entriesView(p[off : off+capacity*entrySize])
	off += capacity * entrySize
	arena := p[off:]
	err := l.st.InstallShard(s, bfhtable.SuccinctShard{
		Hashes: hashes, Meta: meta, Offs: offs, Entries: entries, Arena: arena,
		Used: used, Live: live,
	})
	if err != nil {
		return fmt.Errorf("bfhsnap: %w", err)
	}
	return nil
}

// Finish validates coverage and adopts the assembled storage as a
// FreqHash, cross-checking the totals and restoring the exact weighted
// sums the saved hash held.
func (l *Loader) Finish() (*core.FreqHash, error) {
	for s, ok := range l.covered {
		if !ok {
			return nil, fmt.Errorf("bfhsnap: shard %d missing from snapshot parts", s)
		}
	}
	spec := core.RestoreSpec{Taxa: l.ts, NumTrees: l.trees, Weighted: l.weighted}
	if l.st != nil {
		if l.hdr.Frozen && !l.gotDict {
			return nil, fmt.Errorf("bfhsnap: frozen snapshot carries no dictionary section")
		}
		spec.Backend = core.BackendSuccinct
		return core.AdoptSuccinct(spec, l.st, l.sum, l.lenSum)
	}
	spec.Backend = core.BackendOpenAddressing
	return core.AdoptTable(spec, l.oa, l.sum, l.lenSum)
}

// ReadHeader decodes just the header section of a stream.
func ReadHeader(r io.Reader, size int64) (*Header, error) {
	sr, err := newSectionReader(r, size)
	if err != nil {
		return nil, err
	}
	kind, payload, err := sr.next()
	if err != nil {
		return nil, err
	}
	if kind != secHeader {
		return nil, fmt.Errorf("bfhsnap: first section is kind %d, want header", kind)
	}
	return decodeHeader(payload)
}

// ReadStream loads a complete single-stream snapshot (full shard range)
// from r.
func ReadStream(r io.Reader, size int64) (*core.FreqHash, *Header, error) {
	sr, err := newSectionReader(r, size)
	if err != nil {
		return nil, nil, err
	}
	kind, payload, err := sr.next()
	if err != nil {
		return nil, nil, err
	}
	if kind != secHeader {
		return nil, nil, fmt.Errorf("bfhsnap: first section is kind %d, want header", kind)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return nil, nil, err
	}
	if hdr.ShardFrom != 0 || hdr.ShardTo != hdr.Shards {
		return nil, nil, fmt.Errorf("bfhsnap: stream carries shards [%d,%d) of %d, not a complete snapshot",
			hdr.ShardFrom, hdr.ShardTo, hdr.Shards)
	}
	l, err := NewLoader(hdr)
	if err != nil {
		return nil, nil, err
	}
	if err := l.readSections(sr, hdr); err != nil {
		return nil, nil, err
	}
	if sr.remaining > 0 {
		return nil, nil, fmt.Errorf("bfhsnap: %d trailing bytes after footer", sr.remaining)
	}
	h, err := l.Finish()
	if err != nil {
		return nil, nil, err
	}
	return h, hdr, nil
}
