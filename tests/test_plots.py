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
