package bfhtable

import (
	"encoding/binary"
	"testing"

	"repro/internal/bitset"
)

// FuzzTable drives insert/probe/decrement over arbitrary word patterns and
// cross-checks every observable against a reference map. The corpus seeds
// duplicate-heavy streams and adversarial patterns (shared low words,
// shared high words, all-ones) — the cases where a weak mix or a probing
// bug would cluster or lose keys.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 1, 1, 1, 0, 3})
	// Duplicate-heavy: one key inserted many times.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 40; i++ {
			b = append(b, 0, 7)
		}
		return b
	}())
	// Adversarial: keys identical except the last byte (same high words).
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, 0, 0xff, 0xee, byte(i))
		}
		return b
	}())
	// All-ones words and interleaved decrements.
	f.Add([]byte{0, 0xff, 0xff, 0xff, 1, 0xff, 0xff, 0xff, 0, 0xff, 0xff, 0xff, 1, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		const nw = 2
		tb := New(nw, 4)
		ref := map[[nw]uint64]Entry{}

		// Each op: 1 opcode byte + up to 8 key bytes (zero-padded, spread
		// across both words so high- and low-word collisions both occur).
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var kb [8]byte
			n := copy(kb[:], data)
			data = data[n:]
			k := binary.LittleEndian.Uint64(kb[:])
			words := []uint64{k & 0xffffffff, k >> 32}
			var key [nw]uint64
			copy(key[:], words)

			switch op % 2 {
			case 0: // insert
				size := uint32(op) % 17
				length := int64(op%5) * 5
				tb.Add(words, size, length)
				e := ref[key]
				e.Freq++
				e.Size = size
				e.LengthSum += length
				ref[key] = e
			case 1: // decrement
				e, ok := ref[key]
				got := tb.Dec(words, 5)
				if got != (ok && e.Freq > 0) {
					t.Fatalf("Dec(%x) = %v, ref has freq %d", key, got, e.Freq)
				}
				if ok && e.Freq > 0 {
					// Dec on an already-dead key is a no-op in the table;
					// mirror that here or the reference count underflows.
					e.Freq--
					e.LengthSum -= 5
					ref[key] = e
				}
			}

			// Probe after every op: the touched key must agree with ref.
			e, ok := tb.Lookup(words)
			re, rok := ref[key]
			if ok != (rok && re.Freq > 0) {
				t.Fatalf("Lookup(%x) live=%v, ref freq=%d", key, ok, re.Freq)
			}
			if ok && (e.Freq != re.Freq || e.Size != re.Size || e.LengthSum != re.LengthSum) {
				t.Fatalf("Lookup(%x) = %+v, ref %+v", key, e, re)
			}
		}

		// Final full sweep: live sets identical.
		live := 0
		for _, e := range ref {
			if e.Freq > 0 {
				live++
			}
		}
		if tb.Len() != live {
			t.Fatalf("Len = %d, ref live = %d", tb.Len(), live)
		}
		seen := 0
		tb.Range(func(words []uint64, e Entry) bool {
			seen++
			var key [nw]uint64
			copy(key[:], words)
			re, ok := ref[key]
			if !ok || re.Freq == 0 {
				t.Fatalf("Range yielded dead or phantom key %x", key)
			}
			if e.Freq != re.Freq || e.Size != re.Size || e.LengthSum != re.LengthSum {
				t.Fatalf("Range key %x = %+v, ref %+v", key, e, re)
			}
			return true
		})
		if seen != live {
			t.Fatalf("Range visited %d, ref live = %d", seen, live)
		}
	})
}

// FuzzSuccinct is the succinct-codec and SuccinctTable oracle: every key
// is round-tripped through the compact encoding (encode→decode must be
// the identity on mask words), encoded-byte equality must coincide with
// set equality (the collision-freedom BFHRF requires), and the table's
// observable state — across inserts, decrements, and a mid-stream
// Freeze — must match a reference map keyed on the raw words.
func FuzzSuccinct(f *testing.F) {
	f.Add([]byte{100, 0, 1, 0, 2, 0, 1, 2, 1, 1, 1, 0, 3})
	// Duplicate-heavy one-key stream with an early freeze.
	f.Add(func() []byte {
		b := []byte{180}
		for i := 0; i < 20; i++ {
			b = append(b, 0, 7)
		}
		b = append(b, 2, 0)
		for i := 0; i < 20; i++ {
			b = append(b, 0, 7)
		}
		return b
	}())
	// Dense keys (cosparse encodings) interleaved with decrements.
	f.Add([]byte{70, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe,
		1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 2, 0xff})
	// Shared-prefix population: identical low words, varying high bytes.
	f.Add(func() []byte {
		b := []byte{200}
		for i := 0; i < 32; i++ {
			b = append(b, 0, 0x3f, 0, 0, 0, 0, 0, 0, byte(i))
		}
		b = append(b, 2)
		for i := 0; i < 32; i++ {
			b = append(b, 0, 0x3f, 0, 0, 0, 0, 0, 0, byte(i))
		}
		return b
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0])%250 + 2
		data = data[1:]
		nw := (width + 63) / 64
		st := NewSuccinct(width, 4)
		ref := map[string]Entry{}
		byEnc := map[string]string{} // encoded bytes -> raw-words key
		words := make([]uint64, nw)
		dec := make([]uint64, nw)

		wordsKey := func(w []uint64) string {
			var kb []byte
			for _, x := range w {
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], x)
				kb = append(kb, tmp[:]...)
			}
			return string(kb)
		}

		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var kb [8]byte
			n := copy(kb[:], data)
			data = data[n:]
			k := binary.LittleEndian.Uint64(kb[:])
			// Spread the 64 fuzz bits across all words, then mask to width
			// so the vector is canonical.
			for i := range words {
				words[i] = k ^ (uint64(i) * 0x9e3779b97f4a7c15)
			}
			if rem := width % 64; rem != 0 {
				words[nw-1] &= (1 << uint(rem)) - 1
			}

			// Codec oracle: round-trip identity and collision ⟺ equality.
			enc, ones := bitset.AppendWordsKey(nil, words, width)
			if ones != bitset.PopCountWords(words) {
				t.Fatalf("encoder popcount %d, want %d", ones, bitset.PopCountWords(words))
			}
			if err := bitset.DecodeWordsKey(dec, enc, width); err != nil {
				t.Fatalf("decode of fresh encoding failed: %v", err)
			}
			if !bitset.EqualWords(dec, words) {
				t.Fatalf("round-trip mismatch: %x -> % x -> %x", words, enc, dec)
			}
			rk := wordsKey(words)
			if prev, ok := byEnc[string(enc)]; ok {
				if prev != rk {
					t.Fatalf("two distinct masks share encoding % x", enc)
				}
			} else {
				byEnc[string(enc)] = rk
			}

			switch op % 3 {
			case 0: // insert
				size := uint32(ones)
				length := int64(op%5) * 5
				st.Add(words, size, length)
				e := ref[rk]
				e.Freq++
				e.Size = size
				e.LengthSum += length
				ref[rk] = e
			case 1: // decrement
				e, ok := ref[rk]
				got := st.Dec(words, 5)
				if got != (ok && e.Freq > 0) {
					t.Fatalf("Dec = %v, ref freq %d", got, e.Freq)
				}
				if ok && e.Freq > 0 {
					e.Freq--
					e.LengthSum -= 5
					ref[rk] = e
				}
			case 2: // freeze (idempotent; exercises dictionary re-encode)
				st.Freeze()
			}

			e, ok := st.Lookup(words)
			re := ref[rk]
			if ok != (re.Freq > 0) {
				t.Fatalf("Lookup live=%v, ref freq=%d", ok, re.Freq)
			}
			if ok && (e.Freq != re.Freq || e.Size != re.Size || e.LengthSum != re.LengthSum) {
				t.Fatalf("Lookup = %+v, ref %+v", e, re)
			}
		}

		// Final sweeps: live set and decoded Range contents identical.
		live := 0
		for _, e := range ref {
			if e.Freq > 0 {
				live++
			}
		}
		if st.Len() != live {
			t.Fatalf("Len = %d, ref live = %d", st.Len(), live)
		}
		seen := 0
		st.Range(func(w []uint64, e Entry) bool {
			seen++
			re, ok := ref[wordsKey(w)]
			if !ok || re.Freq == 0 {
				t.Fatalf("Range yielded dead or phantom key %x", w)
			}
			if e.Freq != re.Freq || e.Size != re.Size || e.LengthSum != re.LengthSum {
				t.Fatalf("Range key %x = %+v, ref %+v", w, e, re)
			}
			return true
		})
		if seen != live {
			t.Fatalf("Range visited %d, ref live = %d", seen, live)
		}
	})
}
