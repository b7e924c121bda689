package service

// Helpers for the external service_test package, whose tests drive the
// service with internal/load — which imports this package, so those tests
// cannot live inside it.
var (
	ClusterTestConfig = clusterTestConfig
	NewTestServer     = newTestServer
	StartWorkers      = startWorkers
	EvaluateJSON      = evaluateJSON
	ScrapeSeries      = scrapeSeries
)
