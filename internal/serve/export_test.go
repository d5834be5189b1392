package serve

// Fixtures shared with the external serve_test package, which may
// import packages layered on serve (the streaming ingest tier).
var (
	NewTrafficReplica = newTrafficReplica
	DriveTraffic      = driveTraffic
	FastPool          = fastPool
)
