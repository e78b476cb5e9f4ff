package dfg

// The reference ingest path (reference_test.go), exposed to the external
// test package.
var (
	ReferenceFingerprint     = referenceFingerprint
	ReferenceUnmarshalBinary = referenceUnmarshalBinary
	ReferenceUnmarshalJSON   = referenceUnmarshalJSON
	RequireMatchesReference  = requireMatchesReference
)
