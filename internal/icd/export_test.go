package icd

import (
	"doublechecker/internal/cost"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// EveryGrowth drives c the way ICD handed SCCs to PCD before it waited for
// finality: every detection hands the cyclic component, as it stands at
// that finish, to OnSCC — so a component that grows is handed off again at
// each growth — and nothing is held back for the GC or ProgramEnd. It is
// the oracle the final-SCC hand-off is checked against.
func EveryGrowth(c *Checker) vm.Instrumentation { return everyGrowth{c} }

type everyGrowth struct{ *Checker }

// ProgramStart lets the checker build its manager, then replaces the
// deferred hand-off with the hand-off at detection.
func (g everyGrowth) ProgramStart(e vm.ExecView) {
	c := g.Checker
	c.ProgramStart(e)
	onSCC := c.opts.OnSCC
	c.mgr.OnCollect(nil)
	c.mgr.OnFinish(func(tx *txn.Txn) {
		detected := c.stats.SCCs
		c.txnFinished(tx)
		c.pending = c.pending[:0]
		if c.stats.SCCs == detected || onSCC == nil {
			return
		}
		if c.inc != nil {
			onSCC(c.inc.CyclicComponent(tx, nil))
		} else {
			onSCC(c.scanComponent(tx, cost.Model{}))
		}
	})
}
