//! Raytrace: a sphere-scene ray caster.
//!
//! SPLASH-2's `raytrace` renders a scene by shooting a ray per pixel
//! through shared scene geometry; every ray re-reads the geometry, so
//! the scene is a *high-reuse* working set (Table 2 lists 5.1/5.2 MB).
//! We implement the same access pattern: a flat sphere list (no BVH —
//! every ray tests every sphere, maximising geometry reuse exactly like
//! the paper's high-reuse classification), Lambertian shading, one
//! bounce of shadow rays.

use rda_simcore::Xoshiro256;

/// A scene sphere.
#[derive(Debug, Clone, Copy)]
pub struct Sphere {
    /// Centre.
    pub c: [f64; 3],
    /// Radius.
    pub r: f64,
    /// Diffuse albedo.
    pub albedo: f64,
}

/// Render parameters.
#[derive(Debug, Clone, Copy)]
pub struct RaytraceParams {
    /// Image is `size × size` pixels.
    pub size: usize,
    /// Number of scene spheres.
    pub spheres: usize,
    /// RNG seed for scene generation.
    pub seed: u64,
}

impl RaytraceParams {
    /// A small, fast configuration for tests.
    pub fn test_small() -> Self {
        RaytraceParams {
            size: 32,
            spheres: 40,
            seed: 9,
        }
    }
}

/// Generate a deterministic random scene in the unit cube in front of
/// the camera.
pub fn make_scene(p: &RaytraceParams) -> Vec<Sphere> {
    let mut rng = Xoshiro256::new(p.seed);
    (0..p.spheres)
        .map(|_| Sphere {
            c: [
                rng.next_range_f64(-1.0, 1.0),
                rng.next_range_f64(-1.0, 1.0),
                rng.next_range_f64(2.0, 4.0),
            ],
            r: rng.next_range_f64(0.05, 0.3),
            albedo: rng.next_range_f64(0.2, 1.0),
        })
        .collect()
}

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Ray-sphere intersection: nearest positive `t`, if any.
fn hit(s: &Sphere, origin: &[f64; 3], dir: &[f64; 3]) -> Option<f64> {
    let oc = [origin[0] - s.c[0], origin[1] - s.c[1], origin[2] - s.c[2]];
    let b = dot(&oc, dir);
    let c = dot(&oc, &oc) - s.r * s.r;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let t = -b - sq;
    if t > 1e-6 {
        Some(t)
    } else {
        let t2 = -b + sq;
        (t2 > 1e-6).then_some(t2)
    }
}

const LIGHT: [f64; 3] = [0.577, 0.577, -0.577];

/// Shade one primary ray against the scene.
fn trace_ray(scene: &[Sphere], origin: &[f64; 3], dir: &[f64; 3]) -> f64 {
    let mut best: Option<(f64, usize)> = None;
    for (k, s) in scene.iter().enumerate() {
        if let Some(t) = hit(s, origin, dir) {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, k));
            }
        }
    }
    let Some((t, k)) = best else {
        return 0.05; // background
    };
    let s = &scene[k];
    let p = [
        origin[0] + dir[0] * t,
        origin[1] + dir[1] * t,
        origin[2] + dir[2] * t,
    ];
    let mut n = [p[0] - s.c[0], p[1] - s.c[1], p[2] - s.c[2]];
    let inv = 1.0 / s.r;
    for x in n.iter_mut() {
        *x *= inv;
    }
    let ndotl = dot(&n, &LIGHT).max(0.0);
    // Shadow ray: any occluder toward the light?
    let shadow_origin = [p[0] + n[0] * 1e-4, p[1] + n[1] * 1e-4, p[2] + n[2] * 1e-4];
    let occluded = scene
        .iter()
        .any(|o| hit(o, &shadow_origin, &LIGHT).is_some());
    let direct = if occluded { 0.0 } else { ndotl };
    0.05 + s.albedo * direct
}

/// Render the image; returns the mean pixel intensity (checksum).
pub fn render(p: &RaytraceParams) -> f64 {
    let scene = make_scene(p);
    let mut acc = 0.0;
    let origin = [0.0, 0.0, 0.0];
    for py in 0..p.size {
        for px in 0..p.size {
            let x = (px as f64 + 0.5) / p.size as f64 * 2.0 - 1.0;
            let y = (py as f64 + 0.5) / p.size as f64 * 2.0 - 1.0;
            let mut dir = [x, y, 1.5];
            let norm = dot(&dir, &dir).sqrt().recip();
            for d in dir.iter_mut() {
                *d *= norm;
            }
            acc += trace_ray(&scene, &origin, &dir);
        }
    }
    acc / (p.size * p.size) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_not_flat() {
        // A scene with spheres must produce more than background.
        let mean = render(&RaytraceParams::test_small());
        assert!(mean > 0.051, "mean {mean}");
        assert!(mean < 1.0);
    }

    #[test]
    fn empty_scene_is_pure_background() {
        let mean = render(&RaytraceParams {
            spheres: 0,
            ..RaytraceParams::test_small()
        });
        assert!((mean - 0.05).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic() {
        let p = RaytraceParams::test_small();
        assert_eq!(render(&p), render(&p));
    }

    #[test]
    fn sphere_directly_ahead_is_hit() {
        let s = Sphere {
            c: [0.0, 0.0, 3.0],
            r: 0.5,
            albedo: 1.0,
        };
        let t = hit(&s, &[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        assert!(hit(&s, &[0.0, 0.0, 0.0], &[0.0, 0.0, -1.0]).is_none());
    }
}
