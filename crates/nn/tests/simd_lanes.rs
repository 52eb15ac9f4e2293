//! A traced run names the register width its kernels ran at: the
//! `nn.simd.lanes` gauge reads 8 where the CPU has AVX and 4 where it has
//! not, so a slower run on an older CPU explains itself.

use nv_nn::Matrix;

#[test]
fn traced_kernels_record_their_lane_width() {
    let x = Matrix::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.25).collect());
    let w = Matrix::from_vec(9, 5, (0..45).map(|i| 1.0 - i as f32 * 0.125).collect());
    nv_trace::reset();
    nv_trace::enable();
    let y = x.matmul_nt(&w);
    nv_trace::disable();
    assert_eq!((y.rows, y.cols), (3, 9));
    #[cfg(target_arch = "x86_64")]
    let want = if is_x86_feature_detected!("avx") { 8 } else { 4 };
    #[cfg(not(target_arch = "x86_64"))]
    let want = 4;
    assert_eq!(nv_trace::report().gauge("nn.simd.lanes"), want);
}
