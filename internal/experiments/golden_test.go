package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// Digests of the concatenated Render() output of All and of the extensions,
// recorded on the commit before the coroutine rewrite of internal/des
// (PR 13, 3c0fc1c). TestParallelMatchesSerialByteIdentical proves
// parallel == serial within one commit; these prove before == after
// across commits. A change that moves an exhibit on purpose re-records
// them and says so.
const (
	goldenAllDigest        = "4f1c04348727e10bbf11d4d866aac895a948687a1e73f2f341f29efd10af4e2d"
	goldenExtensionsDigest = "b69985c329b72411d304d9357f5ff7a548f619d4f3bed2991f7e16400e3c2763"
)

func renderDigest(t *testing.T, run func(*Env) ([]Result, error), e *Env) string {
	t.Helper()
	results, err := run(e)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Render())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// extensions runs every extension driver, as cmd/experiments
// -extensions does after the paper's suite.
func extensions(env *Env) ([]Result, error) { return Run(env, suite(true)...) }

// TestSuiteGoldenDigest pins every exhibit's rendered bytes to the
// digests recorded on the parent of the des rewrite.
func TestSuiteGoldenDigest(t *testing.T) {
	e := env(t)
	if got := renderDigest(t, All, e); got != goldenAllDigest {
		t.Errorf("All digest %s, want %s", got, goldenAllDigest)
	}
	if got := renderDigest(t, extensions, e); got != goldenExtensionsDigest {
		t.Errorf("Extensions digest %s, want %s", got, goldenExtensionsDigest)
	}
}
