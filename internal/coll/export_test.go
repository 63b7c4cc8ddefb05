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
