"""SHA-256 digests of the chart and group layers' outputs, pinned bit for bit.

The chart digests were generated from the tree before the chart models
became one record each (orbit_chart.CHARTS), and the group digests from
the tree before the group models did (group_models.GROUPS), so the tests
show that every closed form kept its arithmetic.

Group layer: per model (base included) it hashes multiply, inverse,
adjoint, coadjoint and cocycle on 200 random elements, algebra vectors and
dual vectors, and the structure constants structure_tensor(...).c, at
both parameter sets below.  The elements have theta = 0, where cos and
sin are exact: every group law rotates by theta, and numpy's vectorized
trigonometric kernels change bits with the CPU features they dispatch to.

Chart layer: per chart model it hashes casimirs,
chart_from_dual (coordinates and labels), dual_from_chart, chart_jacobian,
chart_poisson and orbit_point labels on 200 nondegenerate sample_dual
points, and a 2000-step group time flow, at default parameters and at
(m, omega, r) = (1.7, 0.6, 1.3).

Noncentral values that pass through arctan2, cos or sin (its chart
coordinates, the dual points rebuilt from them and its orbit_point labels)
are left out: numpy's vectorized trigonometric kernels depend on the CPU
features it dispatches to, so those bits differ between hosts.  The
noncentral flow starts at phi_f = 0, where cos, sin and arctan2 are exact,
so its coordinates and Casimir series are pinned.

Regenerate both tables (only for an intended change of the arithmetic) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams, orbit_chart

PARAMS = {"default": ModelParams(), "scaled": ModelParams(m=1.7, omega=0.6,
                                                          r=1.3)}
GROUP_MODELS = tuple(ModelId)
CHART_MODELS = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE)
#: Outputs that go through numpy's trigonometric kernels on this chart.
TRIG_DEPENDENT = {ModelId.NONCENTRAL: ("coords", "dual", "orbit_labels")}


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()
                          ).hexdigest()


def group_digests(model: ModelId, params: ModelParams) -> dict[str, str]:
    """Digest of every pinned output of one group model at params."""
    rng = np.random.default_rng(21)
    g, g2 = ao.sample_element(model, rng, (2, 200))
    g[:, 0] = g2[:, 0] = 0.0  # theta, where cos and sin are exact
    dx = rng.uniform(-1.0, 1.0, size=g.shape)
    xi = ao.sample_dual(model, rng, size=200)
    arrays = {
        "multiply": ao.multiply(model, g, g2, params),
        "inverse": ao.inverse(model, g, params),
        "adjoint": ao.adjoint(model, g, dx, params),
        "coadjoint": ao.coadjoint(model, g, xi, params),
        "cocycle": ao.cocycle(g, g2, params),
        "structure": ao.structure_tensor(model, params).c,
    }
    return {name: _digest(a) for name, a in arrays.items()}


def chart_digests(model: ModelId, params: ModelParams) -> dict[str, str]:
    """Digest of every pinned output of one chart model at params."""
    rng = np.random.default_rng(16)
    xi = ao.sample_dual(model, rng, nondegenerate=True, size=200)
    point = ao.chart_from_dual(model, xi, params)
    z = rng.uniform(-1.0, 1.0, size=(200, len(ao.CHART_COORDS[model])))
    z0 = z[0].copy()
    if model is ModelId.NONCENTRAL:
        z0[1] = 0.0  # phi_f, where cos and sin are exact
    spec = ao.FlowSpec(kind="group-time-flow", dt=1e-3, nsteps=2000)
    traj = ao.hamiltonian_flow(model, spec, ao.orbit_point(model, z0, params),
                               params)
    arrays = {
        "casimirs": ao.casimirs(model, xi, params),
        "coords": point.coords,
        "labels": point.labels,
        "dual": ao.dual_from_chart(point, params),
        "jacobian": orbit_chart.chart_jacobian(model, xi, params),
        "poisson": ao.chart_poisson(model, point.coords, point.labels, params),
        "orbit_labels": ao.orbit_point(model, z, params).labels,
        "flow_coords": traj.coords,
        "flow_casimirs": traj.casimir_series,
    }
    for name in TRIG_DEPENDENT.get(model, ()):
        del arrays[name]
    return {name: _digest(a) for name, a in arrays.items()}


GROUP_GOLDEN = {
    ('base', 'default'): {
        'multiply':
            'c7d07ab79dac4c9e4b35b6d66b939d2d3bbea106e94626bdbef4b2888988f034',
        'inverse':
            'a0610b80db0933ea8772a1294ef124130679ff4142037a84c2c30fc978e09c27',
        'adjoint':
            '04ec40ecc77328c2133b370aea790a6b6c47ccd3dac21185facf4eb200c82fda',
        'coadjoint':
            'f4929e28682ae7cd6f432c5eed7a59cc95a20212fa7fe3853591616cf4d7bfc3',
        'cocycle':
            'e4bd0653655468fd6326c9637a3bf54bb5cb640d77021dbc31d79d03281c6790',
        'structure':
            '24f74703b9d9dfa9597b233862842b87350d6cc3fea0bc04b9e8bc1f982cb350',
    },
    ('base', 'scaled'): {
        'multiply':
            'c7d07ab79dac4c9e4b35b6d66b939d2d3bbea106e94626bdbef4b2888988f034',
        'inverse':
            'a0610b80db0933ea8772a1294ef124130679ff4142037a84c2c30fc978e09c27',
        'adjoint':
            '04ec40ecc77328c2133b370aea790a6b6c47ccd3dac21185facf4eb200c82fda',
        'coadjoint':
            'f4929e28682ae7cd6f432c5eed7a59cc95a20212fa7fe3853591616cf4d7bfc3',
        'cocycle':
            '9aa31579b81f05578e68a632edec9461cbb87c670c67d532b0ad07e31bccaf40',
        'structure':
            '24f74703b9d9dfa9597b233862842b87350d6cc3fea0bc04b9e8bc1f982cb350',
    },
    ('central1', 'default'): {
        'multiply':
            '88c49decf6178eecad4efdad62aed0f46487f61a11d11f4cef16dc2789214d9d',
        'inverse':
            'b0ebdab33a9ee006528c82b53d4d1c439a25dd9953f80a1a8cf0bd71fc8ff2cf',
        'adjoint':
            '6e6bed4aea765ff2e06c2748b8cc098e00ebffc550e6e55abffa2ef35b2d7726',
        'coadjoint':
            'ad05fc9a329dcd01a1d02ba41fe8f944a87af8f5d1bc0fe54bf6426e735fee45',
        'cocycle':
            'a62367088b0191fef09f116237859ac84ddb61cdc0dce7695af7688896cf8e5d',
        'structure':
            '94ac6145ca6901c965fe8f35ec811d6ec787a6dfd890bcb9f171be3f63f9c262',
    },
    ('central1', 'scaled'): {
        'multiply':
            '302424ed3ab9e9849b671a89b611268287febd92e36eaf9b3a2368b8e665b2ba',
        'inverse':
            'b0ebdab33a9ee006528c82b53d4d1c439a25dd9953f80a1a8cf0bd71fc8ff2cf',
        'adjoint':
            '50835183263effde8e9c1c04b63381283d1cc89d313db48c60debbba9fa445df',
        'coadjoint':
            'fc9db9766ebe59b9a36592d54729bb9d2bbc51879d08ddd7a51a39d0f97c3b0d',
        'cocycle':
            '2a7bfc9f9aebabc77a9edf1de025f9d4eb91d26adbbcd10b412317c6b66192b3',
        'structure':
            'cdef98bc3f840da925af9977359d658898d8c53993f4081abd494bb232f59c40',
    },
    ('central2', 'default'): {
        'multiply':
            '5f6fa8fa75359932862b6a903283dbaaa7527b19078ee0396aaf2da3e5e93608',
        'inverse':
            '1da7820c102424a6146ff141a95af850255d7a5c0688bb8064134d9f5a350300',
        'adjoint':
            'eb60733ca6cc196f289b63871a47d679fa4fe3d533f2d5e92833bea4328b1ae2',
        'coadjoint':
            'f6ca4e24beba3a9f5ecdffc045e59ca880082b36aae8534d64a1105fd53769c0',
        'cocycle':
            'fff6bb372ac9e76b4c54c907861c29be11128f354652cef7c7a7dfc628e6983f',
        'structure':
            'cb082553412349bf9b03e22c592c26a17a6e822eb4fa59c0cd521152cc0ddb84',
    },
    ('central2', 'scaled'): {
        'multiply':
            'c4b8230dba3f552d0de590ffb9541138d753df5631e41a16baf1aa9b0ff51b67',
        'inverse':
            '6eb2ba2b39496a166562a51debe497ea96155737675edda72bcae38eccb039d7',
        'adjoint':
            'b7cc3bfe400505cb4eebc08daaf9f40141e2d453cf8776394904718d0f5171aa',
        'coadjoint':
            '8dcdc7bfe8b78561b28582c955453887fb5f4c5ae4d2008a23f7d743d743e790',
        'cocycle':
            'e987a280ea2939e1bfec9f669d2e488df946fc8b151752ffd9dd4a6fbb6adc9a',
        'structure':
            '80e56679ea0653d9766bcb95fc503f0037ae0adc180e38e73eaa638138bac046',
    },
    ('noncentral', 'default'): {
        'multiply':
            '07b5c3fbf35748027f19b7748a1b20a33b46256545d76ca6f8f7a41fb855d2b8',
        'inverse':
            'fc3580e32bc4321b87f9f581e75c6384d2982b159f7ed8341cd2f7990fd9984a',
        'adjoint':
            '3783e07055b3f2d366e178ad9f38aa37bfc3fd412018a7aeb2393f66d653a34f',
        'coadjoint':
            'babcffafd5b88b1aaa0509fb4986eeacaffe03f671cb0b3256ba826ad087ef52',
        'cocycle':
            '2dea2241cab2bfeb73fcdf68bce8ae4126e1beebfa4f6563055f4949d9a36ca9',
        'structure':
            '14bb74c70728079982a66b77402e9cb6b13550b10ee50a35c2bc45dc82d0bd62',
    },
    ('noncentral', 'scaled'): {
        'multiply':
            'c3fd60137c1d3102f659c7310f5eaeecf635fdcf5478ae6ac01c6c1281e01cf8',
        'inverse':
            'fc3580e32bc4321b87f9f581e75c6384d2982b159f7ed8341cd2f7990fd9984a',
        'adjoint':
            'd8fa3406194385db7ae1b2a5f264e3b9fba32fd38725aa0d030afa07a18dfc86',
        'coadjoint':
            'df1ebd5edffd5109ee6c9d386c2bd6430f0ceee73b1308bc4b9932b16230be8d',
        'cocycle':
            'f21deabf44227d969c2ce48762590cabb8ac0f09574c44def15c067b6503c5be',
        'structure':
            'e07c78a8d39239bda72e1f9b6801b1f12aa4ef2c610c3efe2c1b6add9147abbd',
    },
    ('double', 'default'): {
        'multiply':
            'a5f8af9eb366a53ca887a687033acca8b965f3a4f5eb73d3c1e131ee0039a90f',
        'inverse':
            '83d80c60f9526aef5c6411a35d4cfd5afd433a65c5c4402b1104f097f76c7a1c',
        'adjoint':
            'bea86cf4bef49aad44e398ed2ed5f254c5177ba216ee58304bf3e98714e42dfc',
        'coadjoint':
            'cb40db56cb5b3d42986e7c5fe3337aaf5f14944c982a902b17c17314ac725d31',
        'cocycle':
            'de2132c416652b2949ee688391bed377c6487fd22e8c576bfd46eb6d248d3d6a',
        'structure':
            '52fe7e61e6a33cc3db15c9eebb3a9774480f9eff078527991651501a9e89739c',
    },
    ('double', 'scaled'): {
        'multiply':
            'ca12041b1661c791fb3e15be2eb2cc97d59273dddaff70838af4ac712e4b7e64',
        'inverse':
            '83d80c60f9526aef5c6411a35d4cfd5afd433a65c5c4402b1104f097f76c7a1c',
        'adjoint':
            'c02580bc8c34484ee07d787b725c8e462bf127d1c79e16e5653574a658eefad0',
        'coadjoint':
            'eb829d6373390eb4ca23a04d5df10a8ddf4de5f0824208452bf6d16aa384c77c',
        'cocycle':
            '9daca75994427a8b57f715eed063b80b8ad7a1589626c887c91a085114eb2a7c',
        'structure':
            'df445d4baec6cec09e4818b885dd94b326e29fea3568e796f8f44156bace94f5',
    },
}

GOLDEN = {
    ('central1', 'default'): {
        'casimirs':
            'e63f0618cbbbc64201bcdadf7205e2d3b1107405e88c2e2388608f7c1b21a504',
        'coords':
            '5421aac0848b46abcfdcc08035cc9a2b381637ba99585e2ee2ebdc2c05332ea3',
        'labels':
            'e63f0618cbbbc64201bcdadf7205e2d3b1107405e88c2e2388608f7c1b21a504',
        'dual':
            'acc7a174dc68b3043d84e4932148af41c6cd5213b8edfa9de13b6d0577fa5d52',
        'jacobian':
            '0da546e7d7e2dd288fc24d07c1e2c73e94c2913be36e004a88eac91a396ae9a6',
        'poisson':
            '96bc863ddcd5638ac1a31d4054005b21a3316057f2ba857da34744e702096a92',
        'orbit_labels':
            '3e4dc31a064f99ec0399b9896911f20de0807ebae35c3cc7755dfd988c88a4c0',
        'flow_coords':
            '8cabaf0ada67b44134c5fbfba4de8265dd69b17e1287f711374e29f6bc19fc38',
        'flow_casimirs':
            'd4fd6057098067c9a8708c024cbe539c9f5c39c9d820864846e1fea1dff21672',
    },
    ('central1', 'scaled'): {
        'casimirs':
            '7e0a8ddf2dd50ea4fae5990a5d402e380de595d5e1d9faaa043da7a9d0a6bdd4',
        'coords':
            'a1a16eaa63632f0df0413f48b44157f0009f3a6edb6fd7dd02a9d8c76d7b5a44',
        'labels':
            '7e0a8ddf2dd50ea4fae5990a5d402e380de595d5e1d9faaa043da7a9d0a6bdd4',
        'dual':
            '469d562973b5bc3e3bfd9e2dc862bc96fe743415c3f947ffa45cb8b4ba9d1caa',
        'jacobian':
            'bd09b04f78ef8c464dc6f63f61b29124cf1c7727e250b13ca8a93c4722ee8480',
        'poisson':
            '19da9aeb937620b2c009e803dbe309cb887dde2f1697498090587f17b60e6ea6',
        'orbit_labels':
            '4561f3bd7674373fc4256bbb4471dc062475f0e27305c41be5c0f8d7285ebf10',
        'flow_coords':
            '8cabaf0ada67b44134c5fbfba4de8265dd69b17e1287f711374e29f6bc19fc38',
        'flow_casimirs':
            '5e110a8f0e99858d63e24e9c441c6a7963a4e87e49eca0dfe6e9c87dbca180e8',
    },
    ('central2', 'default'): {
        'casimirs':
            'a3d86a1ff1be92c223377175a4f8d612dab0f4ac0cd03de559d65fae36b2ec09',
        'coords':
            'ed4b1253fee8c1c4639ca7400dbd4f159d1f171abe329e1ee83c9fabb8d8aac9',
        'labels':
            'a3d86a1ff1be92c223377175a4f8d612dab0f4ac0cd03de559d65fae36b2ec09',
        'dual':
            '3bfb5fee1ef60f44de68780eb000921be3e9d4a3b848640c633b9ad811654f1c',
        'jacobian':
            'ce374c606b6692a36e1e50e4d68579037c7b017fd1334641afbdf2dc48414a19',
        'poisson':
            '380c822f669b6394a962cd28ea3e979b23777ff12b13797353c7e4f00c51a59a',
        'orbit_labels':
            '48f36f1d364242face2432b6f40a9146b4a6a7b0c8ce6f10fad0f2d9b12029a8',
        'flow_coords':
            '155f0b88679a36f10a26228dd89d67095e16433114af62a0f99857b24b1f26b6',
        'flow_casimirs':
            'c8a722e94b5a1276f5da43a91f83d6a0e9c1af71e0d96a88de5b0ff547806a0a',
    },
    ('central2', 'scaled'): {
        'casimirs':
            '2757dcecd167ba37beb885f27a8528aa6ab31b2db65f56046e73b3b6ea0cdb97',
        'coords':
            'a56781649b1c3da8818ebfd2daca480a633d9f84ffcb5e0b1272232b9c6ffe87',
        'labels':
            '2757dcecd167ba37beb885f27a8528aa6ab31b2db65f56046e73b3b6ea0cdb97',
        'dual':
            'd0750d235ec9f00a7f5de1f42a64818bf8f3a1420528d49193ed42361e0d8d89',
        'jacobian':
            '13f0dd1e1660137da57b8732ac91766a0e60f76e9de37dfec5dfb689a317cdb3',
        'poisson':
            'fcc01fdc35109af5f64bd84c4be015554507018316ff2ed368474aa82e092955',
        'orbit_labels':
            'e8d1501451e8dcda0768b651908ee71d13c3b96d872b60a056a032109b7a6dc7',
        'flow_coords':
            '92cffe4eab3bc74832076243c9de51bdfe19de4d5971073defa27a73abec121d',
        'flow_casimirs':
            '9c88c463dbbf464591f4206ddcac94f18c0127340309034f81e3b3101040f283',
    },
    ('noncentral', 'default'): {
        'casimirs':
            '8f6592d2cc64c20901e0b138f805cab1208389b039b1d182989eb34ec3cf165d',
        'labels':
            '8f6592d2cc64c20901e0b138f805cab1208389b039b1d182989eb34ec3cf165d',
        'jacobian':
            '5f07309636fead5139174ca37ba637039924371ca7a41cb9d3434417ef024873',
        'poisson':
            '552f74c8fba680c528affb821639a7c45354457d0d92ab7ec604aa44ed4f4a6d',
        'flow_coords':
            '6e48b45305fdf88fbc2026c01be149b0c4643bffe20b19b50fdc074e79bd9605',
        'flow_casimirs':
            '398f875868990ea91821a613e38fa683e1966ecc30a18541b6740f5af6d51136',
    },
    ('noncentral', 'scaled'): {
        'casimirs':
            'a64a640627bdffd66bd21d846004946f0c4942cdaa182a52455d9e7aa9584c97',
        'labels':
            'a64a640627bdffd66bd21d846004946f0c4942cdaa182a52455d9e7aa9584c97',
        'jacobian':
            '4c5dcd8664eb4fb8e0549b8c207413d24a1e235ca2681783e21fff3d642931f5',
        'poisson':
            'af24721ed74b5c168529e3c57c8dcbee3e619707e5e2d02240b9260510d0de63',
        'flow_coords':
            '6e48b45305fdf88fbc2026c01be149b0c4643bffe20b19b50fdc074e79bd9605',
        'flow_casimirs':
            '3d5561fc0101e41d3f1fba44551185ae2565e51dda46bc50165764ab6d5a2665',
    },
    ('double', 'default'): {
        'casimirs':
            '1b358c6a82f29928192b6ed4a54fc4fdef90280eb76088d5709ea7a8a1960824',
        'coords':
            '5a8a387e29ade6edebff9d5f81560959fe0fdcf4d8b1a888fad08fa802cc2f5d',
        'labels':
            '1b358c6a82f29928192b6ed4a54fc4fdef90280eb76088d5709ea7a8a1960824',
        'dual':
            '7867915c6def36e2ef8882dd3f8be0d66cab6c4532e8699d215d5945456ba08e',
        'jacobian':
            '30ec51494be89f849c3fc87fcf30e458ac1c1f59a83223dd459d9c3ee8210a3c',
        'poisson':
            '27fb78daaef69b4c8835108249d46889fecbd628044b1c62ee5f26a3904428fc',
        'orbit_labels':
            '4f4f817dd7b3345ac3bcbe66e1ec7b3d7aae423418ed6d1a7098384ca262b370',
        'flow_coords':
            '7c69f794325ed419e13f5fee34fcd02d67f2a444f0dd50f69bf20e9aa9c7eeb6',
        'flow_casimirs':
            '896aa0bf0a56e4b346ff18403182118e0ce99f7f5957f9faad4b8e6536dc40da',
    },
    ('double', 'scaled'): {
        'casimirs':
            '37d2a067f1f8a5ddc1312a9e54f2571f415f5579c4a44eeff085e854ab507111',
        'coords':
            '5a8a387e29ade6edebff9d5f81560959fe0fdcf4d8b1a888fad08fa802cc2f5d',
        'labels':
            '37d2a067f1f8a5ddc1312a9e54f2571f415f5579c4a44eeff085e854ab507111',
        'dual':
            '676fb5ed031c0f7f022460f32e7d7b0d28ecb1ff4bfd9c91c776bae5ce987517',
        'jacobian':
            '30ec51494be89f849c3fc87fcf30e458ac1c1f59a83223dd459d9c3ee8210a3c',
        'poisson':
            '604cf8313f22461a7ff20b07ec4b27cb3b8dacb86d7976de6fa1ac173057dfb9',
        'orbit_labels':
            '96578da8f35e2782abf69c47f16f26bb385fda4faf326168638a830190d97139',
        'flow_coords':
            '7c69f794325ed419e13f5fee34fcd02d67f2a444f0dd50f69bf20e9aa9c7eeb6',
        'flow_casimirs':
            '121a65647160513c7f7e43f1e8b62183e44927d7f76141a3def01ee9c236dc72',
    },
}


@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("model", GROUP_MODELS, ids=lambda m: m.value)
def test_group_layer_matches_golden_digests(model, params_name):
    got = group_digests(model, PARAMS[params_name])
    assert got == GROUP_GOLDEN[model.value, params_name]


@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("model", CHART_MODELS, ids=lambda m: m.value)
def test_chart_layer_matches_golden_digests(model, params_name):
    got = chart_digests(model, PARAMS[params_name])
    assert got == GOLDEN[model.value, params_name]


def _print_table(name: str, models, digests) -> None:
    print(f"{name} = {{")
    for model in models:
        for params_name in sorted(PARAMS):
            print(f"    ({model.value!r}, {params_name!r}): {{")
            for key, value in digests(model, PARAMS[params_name]).items():
                print(f"        {key!r}:\n            {value!r},")
            print("    },")
    print("}")


if __name__ == "__main__":
    _print_table("GROUP_GOLDEN", GROUP_MODELS, group_digests)
    print()
    _print_table("GOLDEN", CHART_MODELS, chart_digests)
