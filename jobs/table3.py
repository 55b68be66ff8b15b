"""Reproduce paper Table 3 (efficiency: wall-clock per algorithm).

Usage: spark-submit jobs/table3.py  (or plain ``python jobs/table3.py``,
which creates its own local session). Run that way, the script puts ``src/``
on the Spark Python workers' path before it starts the JVM, so the workers
import ``repro`` and start with its lazy zip imports
(``src/sitecustomize.py``); under spark-submit, export ``PYTHONPATH=src``.

Full pipeline per (dataset, distance): GBP grid pruning (on the driver) →
KPF lower-bound pruning → per-algorithm search via mapInPandas → top-1 merged on
the driver. A cell whose search is still running ``OVERTIME_S`` (default 60)
seconds after it started stops and reports ``overtime`` (the paper's Beijing
rows). Writes ``results/table3.csv``.
"""
import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro.eval.table3 import format_table3, run_table3  # noqa: E402


def main() -> None:
    spark = (
        SparkSession.builder.appName("repro-table3")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.execution.arrow.pyspark.fallback.enabled", "false")
        .getOrCreate()
    )
    try:
        overtime = float(os.environ.get("OVERTIME_S", "60"))
        # Distributed wall-clock (the repro's Spark dataflow) …
        dist_df = run_table3(spark, overtime_s=overtime).rename(
            columns={"seconds": "seconds_spark"}
        )
        # … and the sequential driver pipeline — the faithful analogue of
        # the paper's single-threaded C++ measurement (same kernels, no job
        # overhead); this is the column EXPERIMENTS.md compares shapes on.
        seq_df = run_table3(None, overtime_s=overtime).rename(
            columns={"seconds": "seconds_driver"}
        )
        df = dist_df.merge(
            seq_df[["dataset", "algorithm", "distance", "seconds_driver"]],
            on=["dataset", "algorithm", "distance"],
        )
        out = pathlib.Path(__file__).resolve().parent.parent / "results"
        out.mkdir(exist_ok=True)
        df.to_csv(out / "table3.csv", index=False)
        for col, title in (
            ("seconds_driver", "sequential driver (paper-comparable)"),
            ("seconds_spark", "distributed Spark wall-clock"),
        ):
            print(f"--- Table 3, {title} ---")
            print(format_table3(df.rename(columns={col: "seconds"})))
            print()
        print(f"wrote {out / 'table3.csv'}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
