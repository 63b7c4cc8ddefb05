package coll

// IdleInstances reports how many finished graph instances c keeps for
// relaunch, over all shapes.
func IdleInstances(c *Comm) int {
	n := 0
	for _, l := range c.idle {
		n += len(l.free)
	}
	return n
}

// IdleResyncInstances reports how many finished instances of kind with a
// resync-barrier prefix c keeps for relaunch.
func IdleResyncInstances(c *Comm, kind Kind) int {
	n := 0
	for key, l := range c.idle {
		if key.kind == kind && key.resync {
			n += len(l.free)
		}
	}
	return n
}
