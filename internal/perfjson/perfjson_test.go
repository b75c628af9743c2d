package perfjson

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/memprof"
)

func validSuite() *Suite {
	return &Suite{
		Schema:    SchemaVersion,
		Tool:      "rfbench",
		GitCommit: "deadbeef",
		Timestamp: "2026-08-05T00:00:00Z",
		Scale:     0.02,
		Records: []Record{
			{Workload: "vartrees-n100-r1000", Engine: "DS", N: 100, R: 20, Workers: 1,
				Reps: 5, NsOpMedian: 1e9, NsOpMin: 9e8, PeakHeapMB: 12.5, PeakHeapMBMin: 11.5},
			{Workload: "vartrees-n100-r1000", Engine: "BFHRF8", N: 100, R: 20, Workers: 8,
				Reps: 5, NsOpMedian: 1e7, NsOpMin: 9e6, PeakHeapMB: 2.5, PeakHeapMBMin: 2.25},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	s := validSuite()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != s.Schema || got.Scale != s.Scale || got.GitCommit != s.GitCommit {
		t.Errorf("envelope mismatch: %+v", got)
	}
	if len(got.Records) != len(s.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(s.Records))
	}
	for i := range got.Records {
		if got.Records[i] != s.Records[i] {
			t.Errorf("record %d: got %+v want %+v", i, got.Records[i], s.Records[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	s := validSuite()
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0].Key() != "vartrees-n100-r1000/DS" {
		t.Errorf("unexpected suite: %+v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Suite)
	}{
		{"wrong schema", func(s *Suite) { s.Schema = SchemaVersion + 1 }},
		{"empty workload", func(s *Suite) { s.Records[0].Workload = "" }},
		{"slash in workload", func(s *Suite) { s.Records[0].Workload = "a/b" }},
		{"empty engine", func(s *Suite) { s.Records[0].Engine = "" }},
		{"zero n", func(s *Suite) { s.Records[0].N = 0 }},
		{"zero reps", func(s *Suite) { s.Records[0].Reps = 0 }},
		{"zero median", func(s *Suite) { s.Records[0].NsOpMedian = 0 }},
		{"min above median", func(s *Suite) { s.Records[0].NsOpMin = s.Records[0].NsOpMedian + 1 }},
		{"NaN heap", func(s *Suite) { s.Records[0].PeakHeapMB = math.NaN() }},
		{"Inf heap", func(s *Suite) { s.Records[0].PeakHeapMB = math.Inf(1) }},
		{"negative heap", func(s *Suite) { s.Records[0].PeakHeapMB = -1; s.Records[0].PeakHeapMBMin = -1 }},
		{"NaN heap min", func(s *Suite) { s.Records[0].PeakHeapMBMin = math.NaN() }},
		{"heap min above median", func(s *Suite) { s.Records[0].PeakHeapMBMin = s.Records[0].PeakHeapMB + 1 }},
		{"NaN scale", func(s *Suite) { s.Scale = math.NaN() }},
		{"duplicate key", func(s *Suite) { s.Records[1] = s.Records[0] }},
	}
	for _, tc := range cases {
		s := validSuite()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid suite", tc.name)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err == nil {
			t.Errorf("%s: Encode accepted an invalid suite", tc.name)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"schema":1,"records":[],"bogus":3}`))
	if err == nil {
		t.Error("unknown field should be rejected")
	}
}

func TestFromMeasurements(t *testing.T) {
	ms := []memprof.Measurement{
		{Wall: 5 * time.Millisecond, PeakHeapBytes: 3 << 20},
		{Wall: 2 * time.Millisecond, PeakHeapBytes: 1 << 20},
		{Wall: 9 * time.Millisecond, PeakHeapBytes: 2 << 20},
	}
	r := FromMeasurements("w", "DS", 100, 20, 1, ms)
	if r.Reps != 3 {
		t.Errorf("Reps = %d", r.Reps)
	}
	if r.NsOpMedian != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("NsOpMedian = %d", r.NsOpMedian)
	}
	if r.NsOpMin != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("NsOpMin = %d", r.NsOpMin)
	}
	if r.PeakHeapMB != 2 {
		t.Errorf("PeakHeapMB = %v", r.PeakHeapMB)
	}
	if r.PeakHeapMBMin != 1 {
		t.Errorf("PeakHeapMBMin = %v", r.PeakHeapMBMin)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("aggregated record should be valid: %v", err)
	}
}

func TestFromMeasurementsEvenCount(t *testing.T) {
	// Even k takes the lower middle, a value actually observed.
	ms := []memprof.Measurement{
		{Wall: 4 * time.Millisecond}, {Wall: 1 * time.Millisecond},
		{Wall: 2 * time.Millisecond}, {Wall: 3 * time.Millisecond},
	}
	r := FromMeasurements("w", "DS", 10, 10, 1, ms)
	if r.NsOpMedian != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("NsOpMedian = %d", r.NsOpMedian)
	}
}

func TestGitCommitNeverFails(t *testing.T) {
	// Inside the repo it returns a hash; in a bare temp dir, "unknown".
	// Either way it must return something non-empty.
	if c := GitCommit(t.TempDir()); c == "" {
		t.Error("GitCommit returned empty string")
	}
	if c := GitCommit("."); c == "" {
		t.Error("GitCommit returned empty string in repo")
	}
}

// TestHostRoundTrip: a suite's host fingerprint survives encoding, and a
// suite recorded before hosts were still decodes, with a nil host.
func TestHostRoundTrip(t *testing.T) {
	s := validSuite()
	s.Host = CurrentHost()
	if s.Host.NumCPU <= 0 || s.Host.GOMAXPROCS <= 0 || s.Host.CPU == "" || s.Host.GoVersion == "" {
		t.Fatalf("incomplete host fingerprint %+v", s.Host)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host == nil || *got.Host != *s.Host {
		t.Fatalf("host = %+v, want %+v", got.Host, s.Host)
	}
	buf.Reset()
	if err := Encode(&buf, validSuite()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"host"`) {
		t.Error("a suite without a host encodes a host field")
	}
	if got, err := Decode(&buf); err != nil || got.Host != nil {
		t.Fatalf("host-less suite: host %v, err %v", got.Host, err)
	}
}
