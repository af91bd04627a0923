import numpy as np
import pytest

from mprim import plots


@pytest.mark.parametrize("writer", [plots.write_joint_csv,
                                    plots.write_ee_path_csv,
                                    plots.write_overlay_svg])
@pytest.mark.parametrize("gt_shape,pred_shape",
                         [((5, 3), (5, 4)), ((5, 3), (4, 3))],
                         ids=["columns", "length"])
def test_shape_mismatch_rejected_before_writing(tmp_path, writer, gt_shape,
                                                pred_shape):
    # a (5, 3) path against a (5, 4) one would put 8 values under a
    # 7-column header
    path = tmp_path / "out"
    with pytest.raises(ValueError, match="shapes differ"):
        writer(path, np.zeros(gt_shape), np.ones(pred_shape))
    assert not path.exists()


def test_write_table_writes_header_then_rows(tmp_path):
    # the loss curve `mprim train` writes: one row per epoch
    path = tmp_path / "curve.csv"
    plots.write_table(path, ["epoch", "train_batch_loss", "val_loss"],
                      zip(range(2), [0.5, 0.25], [0.6, 0.3]))
    assert path.read_bytes() == (b"epoch,train_batch_loss,val_loss\r\n"
                                 b"0,0.5,0.6\r\n1,0.25,0.3\r\n")


def test_write_table_writes_a_numpy_float_as_its_number(tmp_path):
    # its repr under numpy 2 is np.float64(0.1)
    path = tmp_path / "t.csv"
    plots.write_table(path, ["group", "value", "n"],
                      [["all", np.float64(0.1), 3]])
    assert path.read_bytes() == b"group,value,n\r\nall,0.1,3\r\n"


def test_rows_that_raise_leave_the_old_table(tmp_path):
    # a table is written whole or not at all
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def rows():
        yield [0, 0.5]
        raise RuntimeError("row 1")

    with pytest.raises(RuntimeError, match="row 1"):
        plots.write_table(path, ["t", "value"], rows())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
