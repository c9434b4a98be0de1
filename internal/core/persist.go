package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// Calibration persistence. The calibration is static per platform and
// the paper stresses it is computed "just once"; saving it lets a
// scheduler load the tables at startup instead of re-running the test
// suite. The format is plain JSON (DelayTables' integer j keys are
// stringified by encoding/json and restored on load); internal/caltrust
// reads it back.

// Save writes the calibration as JSON.
func (c Calibration) Save(w io.Writer) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid calibration: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
