package shard

// WrapReaders replaces every part's reader with wrap(reader), so tests
// in package shard_test can act between the executor's rounds.
func (c *Cluster) WrapReaders(wrap func(Reader) Reader) {
	for i := range c.exec.Parts {
		c.exec.Parts[i].Reader = wrap(c.exec.Parts[i].Reader)
	}
}
