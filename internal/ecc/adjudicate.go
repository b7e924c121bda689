package ecc

// Scheme selects the error-correction scheme that protects a rank. The
// fault simulator (internal/faultsim) adjudicates fault patterns under it
// with its own fast rules, which its tests cross-check against the codecs
// in this package.
type Scheme uint8

// Available schemes. None models unprotected memory.
const (
	None Scheme = iota
	SECDED
	ChipKillSSC
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case SECDED:
		return "sec-ded"
	case ChipKillSSC:
		return "chipkill-ssc"
	default:
		return "scheme(?)"
	}
}
