package core

import "fmt"

// Quota bounds what one monitor will host — the whole-machine backstop
// behind the fleet manager's per-tenant budgets (internal/fleet). Zero
// values disable each check, so existing callers see no change.
type Quota struct {
	// MaxVMs bounds live (non-halted) VMs.
	MaxVMs int
	// MaxPages bounds NominalPages: the sum of every VM's configured
	// memory in pages, whether COW-shared or not. Halted VMs count
	// until destroyed — their pages are still allocated.
	MaxPages uint32
}

// QuotaError reports a CreateVM/Clone rejected by the monitor quota,
// with the limit that would have been breached. The fleet layer
// surfaces it as a typed 429; programmatic callers unwrap it with
// errors.As.
type QuotaError struct {
	Resource string // "vms" or "pages"
	Limit    uint64
	Want     uint64 // value admission would have reached
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("vmm: quota exceeded: %s limit %d, admission would reach %d",
		e.Resource, e.Limit, e.Want)
}

// checkQuota admits or rejects adding one VM of addPages pages.
func (k *VMM) checkQuota(addPages uint32) error {
	q := k.cfg.Quota
	if q.MaxVMs > 0 {
		if n := k.liveVMs() + 1; n > q.MaxVMs {
			return &QuotaError{Resource: "vms", Limit: uint64(q.MaxVMs), Want: uint64(n)}
		}
	}
	if q.MaxPages > 0 {
		if n := uint64(k.NominalPages()) + uint64(addPages); n > uint64(q.MaxPages) {
			return &QuotaError{Resource: "pages", Limit: uint64(q.MaxPages), Want: n}
		}
	}
	return nil
}
