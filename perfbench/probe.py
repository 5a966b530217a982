"""Set-up probe: import the library and parse one workload's configs.

Run in a fresh interpreter by ``run.py``, which times it from process start
until the ``ready`` line arrives.  Usage: ``probe.py <src dir> <workload>
<seed>``.
"""
import sys


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import workloads

    workloads.parse_configs(workload, seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
