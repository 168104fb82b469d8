package hyperdb

import "hyperdb/internal/core"

// Options configures Open: the engine's one options struct, whose zero value
// is the production engine. Either provide pre-built devices (sharing them
// with a harness that reads their counters) or set capacities and let Open
// build paper-profile simulated devices. Each field's default is documented
// in internal/core.
type Options = core.Options

// DefaultOptions returns a laptop-scale configuration with paper-profile
// simulated devices: 256 MiB NVMe performance tier, 8 GiB SATA capacity
// tier.
func DefaultOptions() Options {
	return Options{}
}
