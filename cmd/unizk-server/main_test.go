package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestHelpGolden pins the binary's flag surface — names, defaults and
// help text, as `unizk-server -h` prints them below its "Usage of" line.
// ci.sh, the benchmark and operators' scripts depend on it; the golden
// was generated before the two mains were folded onto cmd/internal/serving.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("unizk-server", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	registerFlags(fs)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("flag surface drifted from testdata/help.golden\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
