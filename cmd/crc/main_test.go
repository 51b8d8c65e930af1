package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compreuse/internal/bench"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/crc.golden")

// TestCrcGolden pins the driver's per-segment report, table lines,
// input histograms and run summary on two suite programs at small
// inputs. Regenerate (only when the report is meant to change):
//
//	go test ./cmd/crc/ -run TestCrcGolden -update-golden
func TestCrcGolden(t *testing.T) {
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	for _, c := range []struct {
		prog string
		args []string
	}{
		{"G721_encode", []string{"20210617", "2000"}},
		{"GNUGO", []string{"2", "2"}},
	} {
		p, err := bench.ByName(c.prog)
		if err != nil {
			t.Fatal(err)
		}
		file := c.prog + ".c"
		if err := os.WriteFile(file, []byte(p.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-hist", "-run", file}, c.args...)
		out.WriteString("$ crc " + strings.Join(args, " ") + "\n")
		if err := run(args, &out); err != nil {
			t.Fatalf("crc %v: %v", args, err)
		}
	}

	golden := filepath.Join(testDir, "testdata", "crc.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("crc output differs from %s (rerun with -update-golden to accept):\n%s", golden, lineDiff(string(want), got))
	}
}

// testDir is the package directory, captured before TestCrcGolden
// changes into its scratch directory.
var testDir, _ = os.Getwd()

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return sb.String()
}

// TestUsageErrors checks that run returns, rather than exits on, a
// missing source file argument and a non-integer main argument.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("no file: got %v, want the usage error", err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "p.c")
	if err := os.WriteFile(file, []byte("int main(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{file, "x"}, &out); err == nil || !strings.Contains(err.Error(), `"x" is not an integer`) {
		t.Errorf("bad main argument: got %v", err)
	}
}
