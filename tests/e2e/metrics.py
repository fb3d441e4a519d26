"""Read one mgrun or flow_smoke run's stdout on stdin.

  metrics.py drop [PREFIX...]  print the `job completed` line and the metrics
                               JSON with every key under a PREFIX dropped,
                               keys sorted: the part two runs must share
  metrics.py counter NAME      print the counter's value from the metrics JSON
"""
import json
import sys

mode, *args = sys.argv[1:]
job = metrics = None
for line in sys.stdin:
    if line.startswith("job completed"):
        job = line
    elif line.startswith('{"counters"'):
        metrics = json.loads(line)
assert metrics, "no metrics JSON in the run's stdout"
if mode == "counter":
    print(metrics["counters"][args[0]])
else:
    assert job, "no job line in the run's stdout"
    drop = tuple(args)
    for section in metrics.values():
        for key in [k for k in section if k.startswith(drop)]:
            del section[key]
    print(job, end="")
    print(json.dumps(metrics, sort_keys=True))
