package main

// Result digests pinned per workload seed, recorded from the tree the
// benchmark was defined on (amd64). An operation whose digest differs
// from its seed's pin counts as failed; a seed without a pin is checked
// for agreement between the run's operations instead.
var (
	table7Pins = map[int64]string{
		1:  "f371c31401694137",
		2:  "c39d4b05dbdf2c31",
		3:  "3f722c4c55996c08",
		4:  "981dc1efe268d57e",
		5:  "7a19800909b90168",
		6:  "ef0893aaceae8ce5",
		7:  "06d2c152affb2372",
		8:  "9b92b427df4f2ce8",
		9:  "1afefdfa2bd17b13",
		10: "c3e2ac172ee2c327",
	}
	table9Pins = map[int64]string{
		1:  "06882c53289f1b3b",
		2:  "0888b56ba116cc19",
		3:  "933c85c997768426",
		4:  "2f6c51d83b58a3c3",
		5:  "2f108d4c38ccb0d5",
		6:  "0c142924980c6df8",
		7:  "376e956f48780602",
		8:  "44cce653e673374e",
		9:  "746147522880652f",
		10: "8bc47257ee08d340",
	}
)
