package embed

// For the external test package, which may import the server.
var (
	OracleEmbed = oracleEmbed
	HostileText = hostileText
)
