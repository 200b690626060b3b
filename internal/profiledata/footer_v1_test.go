package profiledata_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"drbw"
	"drbw/internal/core"
	"drbw/internal/profiledata"
)

// TestFooterV1Compat: a footer in the retired checksum-less layout is no
// index — ErrNoIndex — so the recording streams to exactly the report of
// its current-layout copy, which reads through its index, and fingerprints
// by its full content.
func TestFooterV1Compat(t *testing.T) {
	tool, err := drbw.Train(drbw.Config{Quick: true, Window: 4096, Warmup: 2048, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	td, err := tool.Record("Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p2, p1, objects := filepath.Join(dir, "v2.bin"), filepath.Join(dir, "v1.bin"), filepath.Join(dir, "objects.csv")
	if err := td.SaveAs(p2, objects, drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	v1 := profiledata.LegacyV1Footer(t, v2)
	if err := os.WriteFile(p1, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := profiledata.ReadBlockIndex(bytes.NewReader(v1), int64(len(v1))); !errors.Is(err, profiledata.ErrNoIndex) {
		t.Fatalf("ReadBlockIndex(v1) error = %v, want ErrNoIndex", err)
	}
	if _, err := profiledata.OpenIndexedTrace(p1); !errors.Is(err, profiledata.ErrNoIndex) {
		t.Fatalf("OpenIndexedTrace(v1) error = %v, want ErrNoIndex", err)
	}

	// Two workers: the current-layout copy fans out over its index, the v1
	// copy streams as one job.
	core.SetPoolWorkers(2)
	defer core.SetPoolWorkers(0)
	want, err := tool.AnalyzeTraceFile(p2, objects)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tool.AnalyzeTraceFile(p1, objects)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 report differs from the current-layout copy's\n got %+v\nwant %+v", got, want)
	}

	// FileFingerprint: index form for the current layout, full-content
	// hash for v1.
	fp2, err := profiledata.FileFingerprint(p2)
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := profiledata.FileFingerprint(p1)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("full-hash and index fingerprints collided")
	}
	it, err := profiledata.OpenIndexedTrace(p2)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if fp := it.Fingerprint(); fp != fp2 {
		t.Fatalf("FileFingerprint(%s) = %s, want the index fingerprint %s", p2, fp2, fp)
	}
}
