package core

// Test hooks. Production probers always pick their probe path
// automatically; the equivalence wall forces each path so it can hold
// them to each other bit for bit.

// ProbeMode names a probe path for the equivalence wall.
type ProbeMode = probeMode

// The probe paths the wall compares.
const (
	ProbeAuto    = probeAuto
	ProbeScalar  = probeScalar
	ProbeBatched = probeBatched
)

// proberWith is proberFor forced onto probe path m.
func (h *FreqHash) proberWith(opts QueryOptions, m ProbeMode) *Prober {
	p := h.proberFor(opts)
	p.probe = m
	return p
}
