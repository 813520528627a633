package logtime

// Shapes is the machine sweep of the package's own tests, shared with the
// external logtime_test package. Tests that compare against combine and
// summation live there: those packages import logtime.
var Shapes = shapes
