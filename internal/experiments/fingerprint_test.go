package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// experimentFingerprint is the SHA-256 of every table cell produced by
// Figure 5, Figure 9, Table 3 and the congestion-duration analysis at
// Config{Scale: 0.2, Runs: 1}. Any change to how LIA estimates variances,
// eliminates links or solves the reduced system moves it.
const experimentFingerprint = "b9a098b37e8c051441e21ce2cbb2e33e938fdda7be8c541168bb7ad107fb4f94"

// TestExperimentFingerprint pins the experiments' numeric output bit for
// bit: the cells are hashed as little-endian IEEE-754 bit patterns, in table
// order.
func TestExperimentFingerprint(t *testing.T) {
	cfg := Config{Scale: 0.2, Runs: 1}
	runs := []func() (*Table, error){
		func() (*Table, error) { return Figure5(cfg) },
		func() (*Table, error) { return Figure9(cfg) },
		func() (*Table, error) { return Table3(cfg) },
		func() (*Table, error) { return CongestionDurations(cfg, 20, 0.01) },
	}
	h := sha256.New()
	var buf [8]byte
	for i, run := range runs {
		tab, err := run()
		if err != nil {
			t.Fatalf("experiment %d: %v", i, err)
		}
		for _, row := range tab.Rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("experiment fingerprint %s", got)
	if got != experimentFingerprint {
		t.Fatalf("experiment fingerprint = %s, want %s", got, experimentFingerprint)
	}
}
