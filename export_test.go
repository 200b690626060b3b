package drbw

// SetCollectorMaxKept shrinks the detector's per-run sample cap so tests
// can force the collector's reservoir to overflow (Weight > 1) without a
// full-length run. It returns a restore function for the previous cap.
func SetCollectorMaxKept(t *Tool, n int) (restore func()) {
	prev := t.detector.Ccfg.MaxKept
	t.detector.Ccfg.MaxKept = n
	return func() { t.detector.Ccfg.MaxKept = prev }
}

// SetTestHookIndexOpened installs a hook that runs after an analysis has
// opened a recording's block index, before any block decodes — used to
// mutate the recording mid-analysis and prove the per-block checksum
// verification fires, and to see which inputs read through the index. It
// returns a restore function for the previous hook.
func SetTestHookIndexOpened(f func()) (restore func()) {
	prev := testHookIndexOpened
	testHookIndexOpened = f
	return func() { testHookIndexOpened = prev }
}
