package interp

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOpsUpToDate runs the operator generator and compares its output
// with ops.go, so that the table in gen_ops.go and the closures the VM
// runs cannot drift apart. Regenerate with go generate ./internal/interp.
func TestOpsUpToDate(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run the generator")
	}
	out := filepath.Join(t.TempDir(), "ops.go")
	if b, err := exec.Command(goTool, "run", "gen_ops.go", "-o", out).CombinedOutput(); err != nil {
		t.Fatalf("go run gen_ops.go: %v\n%s", err, b)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("ops.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("ops.go differs from the output of gen_ops.go; run go generate ./internal/interp")
	}
}
