package scan

// What xmark_test.go, outside the package, needs of it.
const RaceEnabled = raceEnabled

var CheckPlanUnchanged = checkPlanUnchanged
