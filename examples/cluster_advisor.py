"""Pick the best pipeline configuration for a model on a cluster.

Reproduces the paper's Sec. 5.3 workflow as a user-facing tool: given a
model, a cluster and a global batch, search (scheme, P, D, W), gate by
GPU memory, and print the ranked table with the recommendation.

Run:  python examples/cluster_advisor.py [PC|FC|TACC|TC] [devices]
"""

import sys

from repro.analysis import format_table, layouts_for, search_grid
from repro.cluster import get_cluster
from repro.models import bert_64


def main() -> None:
    cluster_name = sys.argv[1] if len(sys.argv) > 1 else "TACC"
    devices = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    total_batch = 2 * devices

    cluster = get_cluster(cluster_name, devices)
    model = bert_64()
    print(f"cluster : {cluster.describe()}")
    print(f"model   : {model.describe()}")
    print(f"batch   : {total_batch} sequences / iteration\n")

    rows = []
    best = None
    for scheme in ("gpipe", "dapple", "chimera-wave", "hanayo"):
        table = search_grid(scheme, cluster, model,
                            layouts_for(devices), total_batch)
        for c in table:
            if c.oom:
                rows.append([scheme, c.p, c.d, c.w, None, None, None])
                continue
            rows.append([
                scheme, c.p, c.d, c.w,
                f"{c.throughput:.2f}",
                f"{c.bubble_ratio * 100:.1f}%",
                f"{c.peak_mem_gib:.1f}",
            ])
            if best is None or c.throughput > best[1].throughput:
                best = (scheme, c)
    rows.sort(key=lambda r: float(r[4]) if r[4] else -1, reverse=True)
    print(format_table(
        ["scheme", "P", "D", "W", "seq/s", "bubble", "peak GiB"],
        rows[:14], title="ranked configurations (top 14)",
    ))

    scheme, cell = best
    print(f"\nrecommendation: {scheme} with P={cell.p}, D={cell.d}"
          + (f", W={cell.w}" if scheme == "hanayo" else "")
          + f"  ->  {cell.throughput:.2f} seq/s")


if __name__ == "__main__":
    main()
