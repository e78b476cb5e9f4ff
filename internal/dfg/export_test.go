package dfg

// The reference ingest path (reference_test.go), exposed to the external
// test package.
var (
	ReferenceFingerprint     = referenceFingerprint
	ReferenceUnmarshalBinary = referenceUnmarshalBinary
	ReferenceUnmarshalJSON   = referenceUnmarshalJSON
	RequireMatchesReference  = requireMatchesReference
)

// HasNameMap reports whether d has built its name → id map, which the
// decoders leave to the first ID, MustID or AddNode.
func HasNameMap(d *Graph) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byName != nil
}
