package netlist

// The oracle engines, exported to the external test package.
var (
	OracleParseNamed = oracleParseNamed
	OracleWrite      = oracleWrite
)
