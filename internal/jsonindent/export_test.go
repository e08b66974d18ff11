package jsonindent

// AppendIndent exposes the indenting pass to the external tests.
var AppendIndent = appendIndent
