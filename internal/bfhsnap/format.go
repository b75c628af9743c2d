// Package bfhsnap persists the bipartition frequency hash: a durable,
// CRC-protected on-disk snapshot format for both BFH backends, plus
// an epoch-versioned store with copy-on-write delta builds so a live
// reference collection can grow (or retire trees) while queries keep
// flowing against a pinned epoch.
//
// A snapshot stream is the byte-level format specified in FORMATS.md: an
// 8-byte magic, a sequence of framed sections (header, optional succinct
// dictionary, one section per table shard), and a footer carrying a
// whole-file digest. Shard sections hold the tables' slot arrays
// verbatim, so a load installs them wholesale via bfhtable's restore
// paths — one validation pass, no per-entry re-insert — and the weighted
// totals are carried as exact float64 bits, making a save/load round trip
// bit-identical.
//
// The epoch store lays snapshots out as snap/epoch-NNNNNN/ directories
// published by directory rename with a CURRENT pointer, so a crash never
// leaves a partially visible epoch; see Store.
package bfhsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
)

// Magic identifies a BFH snapshot stream; the trailing digit is the major
// format generation (a reader never attempts a stream whose magic it does
// not know).
const Magic = "BFHSNAP1"

// FormatVersion is the current header version. Readers accept equal
// versions only: the format carries raw table storage whose invariants are
// version-specific, so cross-version compatibility is by re-save, not by
// decode shims.
const FormatVersion = 1

// Section kinds (FORMATS.md "Section catalogue").
const (
	secHeader    = 1   // stream header: version, backend, totals, taxa
	secDict      = 2   // succinct shared-prefix dictionary
	secOAShard   = 3   // one open-addressing shard's slot arrays
	secSuccShard = 4   // one succinct shard's slot arrays + key arena
	secFooter    = 255 // section count + whole-file digest
)

// Backend codes in the header (decoupled from core.Backend's iota, which
// is an in-memory enum free to reorder).
const (
	backendOACode   = 1
	backendSuccCode = 2
)

// Header flag bits.
const (
	flagWeighted = 1 << 0
	flagFrozen   = 1 << 2
)

// Retired map-backend encodings (FORMATS.md "Retired codes"): backend
// code 0, header flag bit 1 (compressed map keys) and section kind 5 (the
// map entry stream). Readers reject them with an error naming the removed
// backend; nothing writes them.
const (
	retiredMapCode     = 0
	retiredMapFlag     = 1 << 1
	retiredMapSection  = 5
	retiredMapBackend  = "map"
	retiredMapGuidance = "the map hash backend was removed; rebuild the hash (its compressed keys are now the succinct backend)"
)

// Format limits. Section payloads are additionally bounded by the
// stream's known size, so a corrupt length cannot trigger a huge
// allocation; these caps keep the limits explicit even for readers fed an
// unbounded stream.
const (
	maxSectionLen = 1 << 31 // hard payload bound (2 GiB)
	maxTaxa       = 1 << 22 // 4M taxon names
	maxShards     = 1 << 16 // far above bfhtable's own 256-shard cap
)

// castagnoli is the CRC32-C polynomial table: every section CRC and the
// whole-file digest use it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded stream header. A stream may carry a contiguous
// subset of the hash's shards ([ShardFrom, ShardTo)); the totals are
// always those of the whole hash. Within an epoch directory the MANIFEST
// totals are authoritative instead — copy-on-write keeps unchanged part
// files from older epochs, whose embedded totals are stale.
type Header struct {
	Version   int
	Backend   core.Backend
	Weighted  bool
	Frozen    bool // succinct dictionary built (a dict section follows)
	Shards    int  // total shard count of the hash
	ShardFrom int  // first shard in this stream
	ShardTo   int  // one past the last shard in this stream
	Trees     int
	Sum       uint64
	LenSum    float64
	TaxaNames []string
}

func backendCode(b core.Backend) (byte, error) {
	switch b {
	case core.BackendOpenAddressing:
		return backendOACode, nil
	case core.BackendSuccinct:
		return backendSuccCode, nil
	}
	return 0, fmt.Errorf("bfhsnap: unsnapshotable backend %v", b)
}

func backendFromCode(c byte) (core.Backend, error) {
	switch c {
	case retiredMapCode:
		return 0, fmt.Errorf("bfhsnap: backend code %d: %s", c, retiredMapGuidance)
	case backendOACode:
		return core.BackendOpenAddressing, nil
	case backendSuccCode:
		return core.BackendSuccinct, nil
	}
	return 0, fmt.Errorf("bfhsnap: unknown backend code %d", c)
}

// encodeHeader renders the header payload (FORMATS.md "Header section").
func encodeHeader(h *Header) ([]byte, error) {
	code, err := backendCode(h.Backend)
	if err != nil {
		return nil, err
	}
	var flags byte
	if h.Weighted {
		flags |= flagWeighted
	}
	if h.Frozen {
		flags |= flagFrozen
	}
	p := make([]byte, 44, 44+16*len(h.TaxaNames))
	binary.LittleEndian.PutUint16(p[0:], uint16(h.Version))
	p[2] = code
	p[3] = flags
	binary.LittleEndian.PutUint32(p[4:], uint32(h.Shards))
	binary.LittleEndian.PutUint32(p[8:], uint32(h.ShardFrom))
	binary.LittleEndian.PutUint32(p[12:], uint32(h.ShardTo))
	binary.LittleEndian.PutUint64(p[16:], uint64(h.Trees))
	binary.LittleEndian.PutUint64(p[24:], h.Sum)
	binary.LittleEndian.PutUint64(p[32:], math.Float64bits(h.LenSum))
	binary.LittleEndian.PutUint32(p[40:], uint32(len(h.TaxaNames)))
	for _, name := range h.TaxaNames {
		p = binary.AppendUvarint(p, uint64(len(name)))
		p = append(p, name...)
	}
	return p, nil
}

// decodeHeader parses and validates a header payload.
func decodeHeader(p []byte) (*Header, error) {
	if len(p) < 44 {
		return nil, fmt.Errorf("bfhsnap: header payload is %d bytes, need at least 44", len(p))
	}
	h := &Header{Version: int(binary.LittleEndian.Uint16(p[0:]))}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("bfhsnap: header version %d, this reader handles %d", h.Version, FormatVersion)
	}
	var err error
	if h.Backend, err = backendFromCode(p[2]); err != nil {
		return nil, err
	}
	flags := p[3]
	if flags&retiredMapFlag != 0 {
		return nil, fmt.Errorf("bfhsnap: header flag %#x (compressed map keys): %s", retiredMapFlag, retiredMapGuidance)
	}
	if flags&^(flagWeighted|flagFrozen) != 0 {
		return nil, fmt.Errorf("bfhsnap: unknown header flags %#x", flags)
	}
	h.Weighted = flags&flagWeighted != 0
	h.Frozen = flags&flagFrozen != 0
	h.Shards = int(binary.LittleEndian.Uint32(p[4:]))
	h.ShardFrom = int(binary.LittleEndian.Uint32(p[8:]))
	h.ShardTo = int(binary.LittleEndian.Uint32(p[12:]))
	h.Trees = int(binary.LittleEndian.Uint64(p[16:]))
	h.Sum = binary.LittleEndian.Uint64(p[24:])
	h.LenSum = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
	nTaxa := int(binary.LittleEndian.Uint32(p[40:]))
	switch {
	case h.Shards < 1 || h.Shards > maxShards || h.Shards&(h.Shards-1) != 0:
		return nil, fmt.Errorf("bfhsnap: header declares %d shards", h.Shards)
	case h.ShardFrom < 0 || h.ShardFrom >= h.ShardTo || h.ShardTo > h.Shards:
		return nil, fmt.Errorf("bfhsnap: header shard range [%d,%d) of %d", h.ShardFrom, h.ShardTo, h.Shards)
	case h.Trees < 0:
		return nil, fmt.Errorf("bfhsnap: header declares %d trees", h.Trees)
	case nTaxa < 1 || nTaxa > maxTaxa:
		return nil, fmt.Errorf("bfhsnap: header declares %d taxa", nTaxa)
	case h.Frozen && h.Backend != core.BackendSuccinct:
		return nil, fmt.Errorf("bfhsnap: frozen flag with backend %v", h.Backend)
	}
	q := p[44:]
	if nTaxa > len(q) {
		// Each name costs at least its one-byte length prefix, so this
		// count cannot fit the payload; checking first keeps a corrupt
		// count from sizing the slice below.
		return nil, fmt.Errorf("bfhsnap: header declares %d taxa in %d bytes", nTaxa, len(q))
	}
	h.TaxaNames = make([]string, 0, nTaxa)
	for i := 0; i < nTaxa; i++ {
		l, n := binary.Uvarint(q)
		if n <= 0 || l > uint64(len(q)-n) {
			return nil, fmt.Errorf("bfhsnap: header taxon %d truncated", i)
		}
		h.TaxaNames = append(h.TaxaNames, string(q[n:n+int(l)]))
		q = q[n+int(l):]
	}
	if len(q) != 0 {
		return nil, fmt.Errorf("bfhsnap: %d trailing bytes after header taxa", len(q))
	}
	return h, nil
}

// sameHash reports whether two part headers describe parts of the same
// hash. Totals and flags are deliberately ignored: copy-on-write epochs
// hard-link unchanged part files from older epochs, whose embedded totals
// (and weighted flag) are stale — the MANIFEST carries the live values.
func (h *Header) sameHash(o *Header) error {
	switch {
	case h.Version != o.Version:
		return fmt.Errorf("bfhsnap: part version %d vs %d", o.Version, h.Version)
	case h.Backend != o.Backend:
		return fmt.Errorf("bfhsnap: part backend %v vs %v", o.Backend, h.Backend)
	case h.Shards != o.Shards:
		return fmt.Errorf("bfhsnap: part declares %d shards vs %d", o.Shards, h.Shards)
	case len(h.TaxaNames) != len(o.TaxaNames):
		return fmt.Errorf("bfhsnap: part declares %d taxa vs %d", len(o.TaxaNames), len(h.TaxaNames))
	}
	for i, name := range h.TaxaNames {
		if o.TaxaNames[i] != name {
			return fmt.Errorf("bfhsnap: part taxon %d is %q vs %q", i, o.TaxaNames[i], name)
		}
	}
	return nil
}
