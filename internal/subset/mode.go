package subset

import "fmt"

// Mode selects the execution strategy for the per-frame clustering
// hot path. ModeExact is the default and reproduces the historical
// algorithms bit-for-bit; ModeBucketed trades exactness for speed and
// is validated against the exact path by the equivalence suite
// (internal/core/equivalence_test.go).
type Mode uint8

const (
	// ModeExact runs the configured algorithm unmodified. Output is
	// byte-identical to the golden corpus at any worker count.
	ModeExact Mode = iota

	// ModeBucketed pre-buckets draws by quantized feature signature so
	// leader/agglomerative inner loops only compare bucket-mates.
	// Bucketing only splits clusters relative to exact (it prunes merge
	// candidates, never loosens acceptance), so subsets stay valid —
	// just occasionally a little larger.
	ModeBucketed
)

// String returns the mode name, the same spelling ParseMode accepts.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeBucketed:
		return "bucketed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode parses a mode name. The empty string is ModeExact, so
// zero-valued configs keep the historical behavior.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "bucketed":
		return ModeBucketed, nil
	default:
		return ModeExact, fmt.Errorf("subset: unknown cluster mode %q (want exact or bucketed)", s)
	}
}
