// Scalar port of glibc 2.36's sincos (see common/detmath.hpp for the
// contract): sysdeps/ieee754/dbl-64/s_sincos.c and the do_sin / do_cos /
// reduce_sincos helpers of s_sin.c as the FMA variant the ifunc selects,
// plus branred.c's __branred, which glibc builds without FMA.
//
// Branches on |x|: below 2^-27 sin = x, cos = 1; below 0.855469 do_sin and
// do_cos of x itself; below 2.426265 of pi/2 - |x| in two parts; below
// 105414350 of x - n pi/2 in two parts (reduce_sincos), above it of the
// same from __branred's 2/pi table. do_sin/do_cos look sin and cos of the
// nearest k/128 up in __sincostab and correct them with short series;
// do_sin uses TAYLOR_SIN instead below 0.126.
// Compiled with -ffp-contract=off (root CMakeLists.txt): every fusion
// below is an explicit std::fma, and every other operation rounds alone.
#include "common/detmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace explora::detmath {

namespace sincos_constants {

alignas(64) const std::uint64_t kTable[4 * kTableEntries] = {
    0x0000000000000000ULL, 0x0000000000000000ULL,  // k = 0
    0x3ff0000000000000ULL, 0x0000000000000000ULL,
    0x3f7fffeaaaaeeeefULL, 0xbc1e45e2ec67b77cULL,  // k = 1
    0x3fefffc000155552ULL, 0x3c8f4a01a0196daeULL,
    0x3f8fffaaaaeeeed5ULL, 0xbc02ab639a9f0777ULL,  // k = 2
    0x3fefff000155549fULL, 0x3c828a28a03a5ef3ULL,
    0x3f97ff7001033255ULL, 0x3bfefe2b51527336ULL,  // k = 3
    0x3feffdc006bff7e6ULL, 0x3c8ae6dae86977bdULL,
    0x3f9ffeaaaeeee86fULL, 0xbc3cd406fb224ae2ULL,  // k = 4
    0x3feffc00155527d3ULL, 0xbc83b54492d89b5bULL,
    0x3fa3feb2b12d45d5ULL, 0x3c34ec54203d1c11ULL,  // k = 5
    0x3feff9c03414a7baULL, 0x3c6991f4be6c59bfULL,
    0x3fa7fdc01032fba9ULL, 0xbc4599bdf46e997aULL,  // k = 6
    0x3feff7006bfdf99fULL, 0xbc78b3b560648d5fULL,
    0x3fabfc6d78586dacULL, 0x3c18e4fd03dbf236ULL,  // k = 7
    0x3feff3c0c8103a31ULL, 0x3c74856dbddc0e66ULL,
    0x3faffaaaeeed4edbULL, 0xbc42d16d32684b69ULL,  // k = 8
    0x3feff0015549f4d3ULL, 0x3c8328387b99426fULL,
    0x3fb1fc343d808befULL, 0xbc5f3d32e6f3be4fULL,  // k = 9
    0x3fefebc222a8ef9fULL, 0x3c57934934f54c77ULL,
    0x3fb3facb12d1755bULL, 0xbc5921915299468cULL,  // k = 10
    0x3fefe7034129ef6fULL, 0xbc6cbf4337c96f97ULL,
    0x3fb5f911fd10b737ULL, 0xbc50184f02be9102ULL,  // k = 11
    0x3fefe1c4c3c873ebULL, 0xbc35a9c9057c4a02ULL,
    0x3fb7f701032550e4ULL, 0x3c3afc2d1800501aULL,  // k = 12
    0x3fefdc06bf7e6b9bULL, 0x3c831902b535f8dbULL,
    0x3fb9f4902d55d1f9ULL, 0x3c52696d7eac1dc1ULL,  // k = 13
    0x3fefd5c94b43e000ULL, 0xbc62e768cb4f92f9ULL,
    0x3fbbf1b78568391dULL, 0x3c5e91841dea4cc8ULL,  // k = 14
    0x3fefcf0c800e99b1ULL, 0x3c6ea3d786d186acULL,
    0x3fbdee6f16c1cce6ULL, 0xbc450f8e2fb71673ULL,  // k = 15
    0x3fefc7d078d1bc88ULL, 0x3c8075d2447db685ULL,
    0x3fbfeaaeee86ee36ULL, 0xbc4afcb2bcc6f03bULL,  // k = 16
    0x3fefc015527d5bd3ULL, 0x3c8b68f35094efb8ULL,
    0x3fc0f3378ddd71d1ULL, 0x3c6d8468724f0f9eULL,  // k = 17
    0x3fefb7db2bfe0695ULL, 0x3c821dadf4f65ab1ULL,
    0x3fc1f0d3d7afceafULL, 0xbc66ef95099769a5ULL,  // k = 18
    0x3fefaf22263c4bd3ULL, 0xbc552ace133a2769ULL,
    0x3fc2ee285e4ab88fULL, 0xbc6e4d0f05dee058ULL,  // k = 19
    0x3fefa5ea641c36f2ULL, 0x3c404da6ed17cc7cULL,
    0x3fc3eb312c5d66cbULL, 0x3c647d666b66cb91ULL,  // k = 20
    0x3fef9c340a7cc428ULL, 0x3c8c5b6b063b7462ULL,
    0x3fc4e7ea4dc5f27bULL, 0x3c5949db2ac072fcULL,  // k = 21
    0x3fef91ff40374d01ULL, 0xbc67d03f4d3a9e4cULL,
    0x3fc5e44fcfa126f3ULL, 0xbc66f443063f89b6ULL,  // k = 22
    0x3fef874c2e1eecf6ULL, 0xbc8c6514e1332b16ULL,
    0x3fc6e05dc05a4d4cULL, 0xbbd32c5c8b81c940ULL,  // k = 23
    0x3fef7c1afeffde24ULL, 0xbc78f55bc47540b1ULL,
    0x3fc7dc102fbaf2b5ULL, 0x3c45ab50e23c97c3ULL,  // k = 24
    0x3fef706bdf9ece1cULL, 0xbc8698c80c36dcb4ULL,
    0x3fc8d7632efaa944ULL, 0xbc620fa262cbb953ULL,  // k = 25
    0x3fef643efeb82acdULL, 0x3c76b00ac1fe28acULL,
    0x3fc9d252d0cec312ULL, 0x3c59c43d80b1137dULL,  // k = 26
    0x3fef57948cff6797ULL, 0x3c6e3a0d3e03b1d5ULL,
    0x3fcaccdb297a0765ULL, 0xbc59883b57d6cdebULL,  // k = 27
    0x3fef4a6cbd1e3a79ULL, 0x3c813df0edaebb57ULL,
    0x3fcbc6f84edc6199ULL, 0x3c69c1a56a7b0cabULL,  // k = 28
    0x3fef3cc7c3b3d16eULL, 0xbc621a3ad28a3494ULL,
    0x3fccc0a6588289a3ULL, 0xbc6868d09bc87c6bULL,  // k = 29
    0x3fef2ea5d753ffedULL, 0x3c8cc4215f56d583ULL,
    0x3fcdb9e15fb5a5d0ULL, 0xbc632e20d6cc6fc2ULL,  // k = 30
    0x3fef20073086649fULL, 0x3c7b940416c1984bULL,
    0x3fceb2a57f8ae5a3ULL, 0xbc60be06af572cebULL,  // k = 31
    0x3fef10ec09c5873bULL, 0x3c8d9072762c1283ULL,
    0x3fcfaaeed4f31577ULL, 0xbc615d88508e32b8ULL,  // k = 32
    0x3fef01549f7deea1ULL, 0x3c8d3c1e99e5cafdULL,
    0x3fd0515cbf65155cULL, 0xbc79b8c29dfd8ec8ULL,  // k = 33
    0x3feef141300d2f26ULL, 0xbc82aa1b08ded372ULL,
    0x3fd0cd00cef36436ULL, 0xbc79fb0a0c93e2b5ULL,  // k = 34
    0x3feee0b1fbc0f11cULL, 0xbc4bfd2380bbc3b1ULL,
    0x3fd14861aa94ddebULL, 0xbc6be881b5b615a4ULL,  // k = 35
    0x3feecfa744d5efa1ULL, 0xbc556d0a4af541d0ULL,
    0x3fd1c37d64c6b876ULL, 0x3c746076fe0dcff5ULL,  // k = 36
    0x3feebe214f76efa8ULL, 0xbc802f9f12ba543eULL,
    0x3fd23e52111aaf36ULL, 0xbc74f080334eff18ULL,  // k = 37
    0x3feeac2061bbaf4fULL, 0x3c62c1d53e94658dULL,
    0x3fd2b8ddc43eb49fULL, 0x3c61553899f2d807ULL,  // k = 38
    0x3fee99a4c3a7cd83ULL, 0xbc82264b1bc53ce8ULL,
    0x3fd3331e94049f87ULL, 0x3c7e0cb6b40c302cULL,  // k = 39
    0x3fee86aebf29a9edULL, 0x3c89397afdbb58a7ULL,
    0x3fd3ad129769d3d8ULL, 0x3c003d5504878398ULL,  // k = 40
    0x3fee733ea0193d40ULL, 0xbc86428b3546ce13ULL,
    0x3fd426b7e69ee697ULL, 0xbc7f09c75705c59fULL,  // k = 41
    0x3fee5f54b436e9d0ULL, 0x3c87eb0fd02fc8bcULL,
    0x3fd4a00c9b0f3d20ULL, 0x3c7823ba6bb08eadULL,  // k = 42
    0x3fee4af14b2a449cULL, 0xbc868ca02e8a6833ULL,
    0x3fd5190ecf68a77aULL, 0x3c7b357155eef0f3ULL,  // k = 43
    0x3fee3614b680d6a5ULL, 0xbc727793aa015237ULL,
    0x3fd591bc9fa2f597ULL, 0x3c67c74bac3fe0cbULL,  // k = 44
    0x3fee20bf49acd6c1ULL, 0xbc5660aec7ef636cULL,
    0x3fd60a1429078775ULL, 0x3c5b1fd80ba89133ULL,  // k = 45
    0x3fee0af15a03dbceULL, 0x3c5fe8e702771ae6ULL,
    0x3fd682138a38d7f7ULL, 0xbc7d889202444aadULL,  // k = 46
    0x3fedf4ab3ebd875eULL, 0xbc8e2d8a7e6736c4ULL,
    0x3fd6f9b8e33a0255ULL, 0x3c742bc14ee9da0dULL,  // k = 47
    0x3feddded50f228d6ULL, 0xbc6e80c8d42ba2bfULL,
    0x3fd7710255764214ULL, 0xbc66ead7314bb6ceULL,  // k = 48
    0x3fedc6b7eb995912ULL, 0x3c54b364776dcd35ULL,
    0x3fd7e7ee03c86d4eULL, 0xbc7b63bcdabf5af2ULL,  // k = 49
    0x3fedaf0b6b888e83ULL, 0x3c8a249e2b5e5ceaULL,
    0x3fd85e7a12826949ULL, 0x3c78a40e9b5face0ULL,  // k = 50
    0x3fed96e82f71a9dcULL, 0x3c8ff61bd5d2039dULL,
    0x3fd8d4a4a774992fULL, 0x3c744a02ea766326ULL,  // k = 51
    0x3fed7e4e97e17b4aULL, 0xbc63b770352bed94ULL,
    0x3fd94a6be9f546c5ULL, 0xbc769ce13e683f58ULL,  // k = 52
    0x3fed653f073e4040ULL, 0xbc876236434bec37ULL,
    0x3fd9bfce02e80510ULL, 0x3c709e39a320b0a4ULL,  // k = 53
    0x3fed4bb9e1c619e0ULL, 0x3c8f34bb77858f61ULL,
    0x3fda34c91cc50ccaULL, 0xbc5a310e3b50cecdULL,  // k = 54
    0x3fed31bf8d8d7c06ULL, 0x3c7e60dd3089cbddULL,
    0x3fdaa95b63a09277ULL, 0xbc66293eb13c0381ULL,  // k = 55
    0x3fed1750727d94f0ULL, 0x3c80d52b1ec1a48eULL,
    0x3fdb1d8305321617ULL, 0xbc7ae242cb99f519ULL,  // k = 56
    0x3fecfc6cfa52ad9fULL, 0x3c88b5b5508f2a0dULL,
    0x3fdb913e30dbac43ULL, 0xbc7e38ad2f6c3ff1ULL,  // k = 57
    0x3fece115909a82e5ULL, 0x3c81f139bb31109aULL,
    0x3fdc048b17b140a3ULL, 0x3c619fe6757e9fa7ULL,  // k = 58
    0x3fecc54aa2b2972eULL, 0x3c64ee162ba83a98ULL,
    0x3fdc7767ec7fd19eULL, 0xbc5eb14d1a3d5826ULL,  // k = 59
    0x3feca90c9fc67d0bULL, 0xbc646a81485e3462ULL,
    0x3fdce9d2e3d4a51fULL, 0xbc62fc8a12dae298ULL,  // k = 60
    0x3fec8c5bf8ce1a84ULL, 0x3c7ab3d1a1590123ULL,
    0x3fdd5bca34047661ULL, 0x3c728a44a75fc29cULL,  // k = 61
    0x3fec6f39208be53bULL, 0xbc8741dbfbaadb42ULL,
    0x3fddcd4c15329c9aULL, 0x3c70d4c6e171fd9aULL,  // k = 62
    0x3fec51a48b8b175eULL, 0xbc61bbb43b9aa880ULL,
    0x3fde3e56c1582a69ULL, 0xbc50a4821099f88fULL,  // k = 63
    0x3fec339eb01ddd81ULL, 0xbc8caaf5ee82c5c0ULL,
    0x3fdeaee8744b05f0ULL, 0xbc5789b43c9b027dULL,  // k = 64
    0x3fec1528065b7d50ULL, 0xbc8892111312e828ULL,
    0x3fdf1eff6bc4f97bULL, 0x3c717212f8a7525cULL,  // k = 65
    0x3febf641081e7536ULL, 0x3c8b7bd71628a9a1ULL,
    0x3fdf8e99e76abc97ULL, 0x3c59d950af2d00a3ULL,  // k = 66
    0x3febd6ea310294f5ULL, 0x3c731bbcc88c109dULL,
    0x3fdffdb628d2f57aULL, 0x3c6f4a992e905b6aULL,  // k = 67
    0x3febb723fe630f32ULL, 0x3c772bd2452d0a39ULL,
    0x3fe0362939c69955ULL, 0xbc82d8cd78397b01ULL,  // k = 68
    0x3feb96eeef58840eULL, 0x3c545a3cc78fade0ULL,
    0x3fe06d3686946e5bULL, 0x3c83f5ae4538ff1bULL,  // k = 69
    0x3feb764b84b704c2ULL, 0xbc8f5848c21b389bULL,
    0x3fe0a4021e9e1001ULL, 0xbc86f643a13914f6ULL,  // k = 70
    0x3feb553a410c104eULL, 0x3c58ff7947027a16ULL,
    0x3fe0da8b26b5672eULL, 0xbc8a58def0bee909ULL,  // k = 71
    0x3feb33bba89c8948ULL, 0x3c8ea6a51d1f6ca9ULL,
    0x3fe110d0c4b69c3bULL, 0x3c8d918998809981ULL,  // k = 72
    0x3feb11d04162a4c6ULL, 0x3c71dd561efbc0c2ULL,
    0x3fe146d21f8b7f82ULL, 0x3c7bf9535e2739a8ULL,  // k = 73
    0x3feaef78930bd275ULL, 0xbc7f836279746f94ULL,
    0x3fe17c8e5f2eedb0ULL, 0x3c635e57102e2488ULL,  // k = 74
    0x3feaccb526f69de5ULL, 0x3c88fb6a8dd6b6ccULL,
    0x3fe1b204acb02fddULL, 0xbc5f190c70cbb5ffULL,  // k = 75
    0x3feaa98688308913ULL, 0xbc0b83d607cd5070ULL,
    0x3fe1e7343236574cULL, 0x3c722a3fa4f41d5aULL,  // k = 76
    0x3fea85ed4373e02dULL, 0x3c69be06385ec792ULL,
    0x3fe21c1c1b0394cfULL, 0x3c5e5b324b23aa31ULL,  // k = 77
    0x3fea61e9e72586afULL, 0x3c858330e2fd453fULL,
    0x3fe250bb93788bbbULL, 0x3c7ea3d02457bcceULL,  // k = 78
    0x3fea3d7d0352bdcfULL, 0xbc868dbaeca19669ULL,
    0x3fe28511c917a067ULL, 0xbc801df1d9a16b70ULL,  // k = 79
    0x3fea18a729aee445ULL, 0x3c395e25736c0358ULL,
    0x3fe2b91dea88421eULL, 0xbc8fa371db216ab0ULL,  // k = 80
    0x3fe9f368ed912f85ULL, 0xbc81d200c5791606ULL,
    0x3fe2ecdf279a3082ULL, 0x3c8d3557e0e7e37eULL,  // k = 81
    0x3fe9cdc2e3f25e5cULL, 0x3c83f99112993f62ULL,
    0x3fe32054b148bc4fULL, 0x3c8f6b42095a135bULL,  // k = 82
    0x3fe9a7b5a36a6514ULL, 0x3c8722cfcc9fa7a9ULL,
    0x3fe3537db9be0367ULL, 0x3c6b327e7af040f0ULL,  // k = 83
    0x3fe98141c42e1310ULL, 0x3c8d1ff80488f08dULL,
    0x3fe386597456282bULL, 0xbc710fada93b07a8ULL,  // k = 84
    0x3fe95a67e00cb1fdULL, 0xbc80befda21f862dULL,
    0x3fe3b8e715a2840aULL, 0xbc797653a7d2f07bULL,  // k = 85
    0x3fe93328926d9e92ULL, 0xbc8bb77003600cdaULL,
    0x3fe3eb25d36cd53aULL, 0xbc5be570e1570fc0ULL,  // k = 86
    0x3fe90b84784ddaf7ULL, 0xbc70feb10ab93b87ULL,
    0x3fe41d14e4ba6790ULL, 0x3c84608fd287ecf5ULL,  // k = 87
    0x3fe8e37c303d9ad1ULL, 0xbc6463a4b53d4bf8ULL,
    0x3fe44eb381cf386bULL, 0xbc83ed6c1e6a5505ULL,  // k = 88
    0x3fe8bb105a5dc900ULL, 0x3c8863e03e9474c1ULL,
    0x3fe48000e431159fULL, 0xbc8b194a7463ed10ULL,  // k = 89
    0x3fe89241985d871fULL, 0x3c8c48d9c413ed84ULL,
    0x3fe4b0fc46aab761ULL, 0x3c20da05738cc59aULL,  // k = 90
    0x3fe869108d77a6c6ULL, 0x3c7338ffe2bfe9ddULL,
    0x3fe4e1a4e54ed51bULL, 0xbc8a492f89b7c76aULL,  // k = 91
    0x3fe83f7dde701ca0ULL, 0xbc4152cf609bc6e8ULL,
    0x3fe511f9fd7b351cULL, 0xbc85c0e861c48831ULL,  // k = 92
    0x3fe8158a31916d5dULL, 0xbc6de8b90b8228deULL,
    0x3fe541facddbb724ULL, 0x3c7232c28520d391ULL,  // k = 93
    0x3fe7eb362eaa1488ULL, 0x3c5a1d65a4a5959fULL,
    0x3fe571a6966d59b3ULL, 0x3c5c843b4d0fb198ULL,  // k = 94
    0x3fe7c0827f09e54fULL, 0xbc6c73d6d72aee68ULL,
    0x3fe5a0fc98813a12ULL, 0xbc8d82e2b7d4227bULL,  // k = 95
    0x3fe7956fcd7f6543ULL, 0xbc8ab276e9d45ae4ULL,
    0x3fe5cffc16bf8f0dULL, 0x3c896cb370eb578aULL,  // k = 96
    0x3fe769fec655211fULL, 0xbc6827d5cf8c68c5ULL,
    0x3fe5fea4552a9e57ULL, 0x3c80b6cef7ee20b7ULL,  // k = 97
    0x3fe73e30174efba1ULL, 0xbc65d3ae3d94ad5fULL,
    0x3fe62cf49921ac79ULL, 0xbc8edd9855b6241aULL,  // k = 98
    0x3fe712046fa77678ULL, 0x3c8425b0a5029c81ULL,
    0x3fe65aec2963e755ULL, 0x3c8126f96b71053cULL,  // k = 99
    0x3fe6e57c800cf55eULL, 0x3c860286dedbd0a6ULL,
    0x3fe6888a4e134b2fULL, 0xbc86b7d37644d5e6ULL,  // k = 100
    0x3fe6b898fa9efb5dULL, 0x3c715ac786ccf4b2ULL,
    0x3fe6b5ce50b7821aULL, 0xbc65d5158f702e0fULL,  // k = 101
    0x3fe68b5a92eb6253ULL, 0xbc89a91ad985f89cULL,
    0x3fe6e2b77c40bde1ULL, 0xbc70e729857fad53ULL,  // k = 102
    0x3fe65dc1fdeb8cbaULL, 0xbc597c1b47337c77ULL,
    0x3fe70f451d0a8c40ULL, 0x3c697ede3885770dULL,  // k = 103
    0x3fe62fcff20191c7ULL, 0x3c6d9143895756efULL,
    0x3fe73b7680dea578ULL, 0xbc72248306dc12a2ULL,  // k = 104
    0x3fe6018526f563dfULL, 0x3c846ca5e0e432d0ULL,
    0x3fe7674af6f7b524ULL, 0x3c7e9d3f94ac84a8ULL,  // k = 105
    0x3fe5d2e255f1f17aULL, 0x3c80314104c8892bULL,
    0x3fe792c1d0041d52ULL, 0xbc8abf05eeb354ebULL,  // k = 106
    0x3fe5a3e839824077ULL, 0x3c8428aa2759be62ULL,
    0x3fe7bdda5e28b3c2ULL, 0x3c4ad1197ccd0393ULL,  // k = 107
    0x3fe574978d8e83f2ULL, 0x3c8f4714af282d23ULL,
    0x3fe7e893f5037959ULL, 0x3c80eefbaa650c4cULL,  // k = 108
    0x3fe544f10f592ca5ULL, 0xbc8e7ae8e6c7a62fULL,
    0x3fe812ede9ae4ba4ULL, 0xbc87830adf402ddaULL,  // k = 109
    0x3fe514f57d7bf3daULL, 0x3c747a108073c259ULL,
};

}  // namespace sincos_constants

namespace {

using namespace sincos_constants;

// The helpers with fused sites are always inlined, so that they run in
// sincos()'s FMA clone instead of calling libm's fma.

/// The table row of k = round(|x| * 128): the low word of kBig + |x|.
[[nodiscard, gnu::always_inline]] inline const std::uint64_t* table_row(
    double abs_x) noexcept {
  const auto k = static_cast<std::uint32_t>(
      std::bit_cast<std::uint64_t>(kBig + abs_x));
  return kTable + 4 * static_cast<std::size_t>(k);
}

/// sin(x + dx) for |x| < 0.855469, |dx| tiny.
[[nodiscard, gnu::always_inline]] inline double do_sin(double x,
                                                      double dx) noexcept {
  if (std::fabs(x) < kTaylorMax) {
    // TAYLOR_SIN: x + (P(xx) x - dx/2) xx + dx.
    const double xx = x * x;
    const double poly = std::fma(
        std::fma(std::fma(std::fma(xx, kS5, kS4), xx, kS3), xx, kS2), xx,
        kS1);
    return x + std::fma(xx, std::fma(poly, x, -(0.5 * dx)), dx);
  }
  const double x_old = x;
  if (x <= 0.0) dx = -dx;
  const double abs_x = std::fabs(x);
  const std::uint64_t* row = table_row(abs_x);
  x = abs_x - ((kBig + abs_x) - kBig);
  const double xx = x * x;
  const double s = x + std::fma(x * xx, std::fma(xx, kSn5, kSn3), dx);
  const double c = std::fma(
      x, dx, xx * std::fma(std::fma(xx, kCs6, kCs4), xx, kCs2));
  const double sn = std::bit_cast<double>(row[0]);
  const double ssn = std::bit_cast<double>(row[1]);
  const double cs = std::bit_cast<double>(row[2]);
  const double ccs = std::bit_cast<double>(row[3]);
  const double cor = std::fma(cs, s, std::fma(-sn, c, std::fma(s, ccs, ssn)));
  return std::copysign(sn + cor, x_old);
}

/// cos(x + dx) for |x| < 0.855469, |dx| tiny.
[[nodiscard, gnu::always_inline]] inline double do_cos(double x,
                                                      double dx) noexcept {
  if (x < 0.0) dx = -dx;
  const double abs_x = std::fabs(x);
  const std::uint64_t* row = table_row(abs_x);
  x = (abs_x - ((kBig + abs_x) - kBig)) + dx;
  const double xx = x * x;
  const double s = std::fma(x * xx, std::fma(xx, kSn5, kSn3), x);
  const double c = xx * std::fma(std::fma(xx, kCs6, kCs4), xx, kCs2);
  const double sn = std::bit_cast<double>(row[0]);
  const double ssn = std::bit_cast<double>(row[1]);
  const double cs = std::bit_cast<double>(row[2]);
  const double ccs = std::bit_cast<double>(row[3]);
  const double cor =
      std::fma(-sn, s, std::fma(-cs, c, std::fma(-s, ssn, ccs)));
  return cs + cor;
}

/// a + da = x - n pi/2 for |x| < 105414350; returns n mod 4.
[[nodiscard, gnu::always_inline]] inline unsigned reduce_sincos(
    double x, double& a, double& da) noexcept {
  const double t = std::fma(x, kHpInv, kToInt);
  const double xn = t - kToInt;
  const double y = std::fma(-xn, kMp2, std::fma(-xn, kMp1, x));
  const auto n = static_cast<unsigned>(std::bit_cast<std::uint64_t>(t)) & 3U;
  const double t2 = std::fma(-xn, kPp3, y);
  double db = std::fma(-xn, kPp3, y - t2);
  const double b = std::fma(-xn, kPp4, t2);
  db = db + std::fma(-xn, kPp4, t2 - b);
  a = b;
  da = db;
  return n;
}

// branred.h: 2/pi in 24-bit digits, and the splitting constants.
constexpr double kToverp[75] = {
    10680707.0, 7228996.0, 1387004.0, 2578385.0, 16069853.0,
    12639074.0, 9804092.0, 4427841.0, 16666979.0, 11263675.0,
    12935607.0, 2387514.0, 4345298.0, 14681673.0, 3074569.0,
    13734428.0, 16653803.0, 1880361.0, 10960616.0, 8533493.0,
    3062596.0, 8710556.0, 7349940.0, 6258241.0, 3772886.0,
    3769171.0, 3798172.0, 8675211.0, 12450088.0, 3874808.0,
    9961438.0, 366607.0, 15675153.0, 9132554.0, 7151469.0,
    3571407.0, 2607881.0, 12013382.0, 4155038.0, 6285869.0,
    7677882.0, 13102053.0, 15825725.0, 473591.0, 9065106.0,
    15363067.0, 6271263.0, 9264392.0, 5636912.0, 4652155.0,
    7056368.0, 13614112.0, 10155062.0, 1944035.0, 9527646.0,
    15080200.0, 6658437.0, 6231200.0, 6832269.0, 16767104.0,
    5075751.0, 3212806.0, 1398474.0, 7579849.0, 6349435.0,
    12618859.0, 4703257.0, 12806093.0, 14477321.0, 2786137.0,
    12875403.0, 9837734.0, 14528324.0, 13719321.0, 343717.0,
};
constexpr double kSplit = 0x1.0000002p+27;  ///< 2^27 + 1
constexpr double kBranredBig = 0x1.8p52;
constexpr double kBranredBig1 = 0x1.8p54;
constexpr double kBranredMp2 = -0x1.dde974p-27;

/// One of __branred's two halves: x times 2/pi, as sum (an integer, kept
/// mod 4 in big1's units) + b + bb.
void branred_half(double x, double& sum, double& b, double& bb) noexcept {
  int k = static_cast<int>(
              (std::bit_cast<std::uint64_t>(x) >> 52) & 2047U) - 450;
  k = k < 0 ? 0 : k / 24;
  double gor = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(0x1p576) -
      (static_cast<std::uint64_t>(k * 24) << 52));
  double r[6];
  for (int i = 0; i < 6; ++i) {
    r[i] = x * kToverp[k + i] * gor;
    gor *= 0x1p-24;
  }
  sum = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double s = (r[i] + kBranredBig) - kBranredBig;
    sum += s;
    r[i] -= s;
  }
  double t = 0.0;
  for (int i = 0; i < 6; ++i) t += r[5 - i];
  bb = (((((r[0] - t) + r[1]) + r[2]) + r[3]) + r[4]) + r[5];
  double s = (t + kBranredBig) - kBranredBig;
  sum += s;
  t -= s;
  b = t + bb;
  bb = (t - b) + bb;
  s = (sum + kBranredBig1) - kBranredBig1;
  sum -= s;
}

/// glibc's __branred: a + da = x - n pi/2 for |x| >= 105414350; returns
/// n mod 4. No fused sites (glibc compiles branred.c without FMA).
[[nodiscard]] unsigned branred(double x, double& a, double& da) noexcept {
  x *= 0x1p-600;
  double t = x * kSplit;  // split x into two 26-bit halves
  const double x1 = t - (t - x);
  const double x2 = x - x1;
  double sum1 = 0.0;
  double b1 = 0.0;
  double bb1 = 0.0;
  branred_half(x1, sum1, b1, bb1);
  double sum2 = 0.0;
  double b2 = 0.0;
  double bb2 = 0.0;
  branred_half(x2, sum2, b2, bb2);

  double sum = sum1 + sum2;
  double b = b1 + b2;
  double bb = std::fabs(b1) > std::fabs(b2) ? (b1 - b) + b2 : (b2 - b) + b1;
  if (b > 0.5) {
    b -= 1.0;
    sum += 1.0;
  } else if (b < -0.5) {
    b += 1.0;
    sum -= 1.0;
  }
  double s = b + (bb + bb1 + bb2);
  t = ((b - s) + bb) + (bb1 + bb2);
  b = s * kSplit;
  const double t1 = b - (b - s);
  const double t2 = s - t1;
  b = s * kHp0;
  bb = (((t1 * kMp1 - b) + t1 * kBranredMp2) + t2 * kMp1) +
       (t2 * kBranredMp2 + s * kHp1 + t * kHp0);
  s = b + bb;
  t = (b - s) + bb;
  a = s;
  da = t;
  return static_cast<unsigned>(static_cast<int>(sum)) & 3U;
}

}  // namespace

EXPLORA_DETMATH_FMA_CLONES SinCos sincos(double x) noexcept {
  const double abs_x = std::fabs(x);
  if (abs_x < kMidMax) {
    if (abs_x < kTinyMax) return {x, 1.0};
    if (abs_x < kSmallMax) return {do_sin(x, 0.0), do_cos(x, 0.0)};
    // pi/2 - |x| in two parts.
    const double y = kHp0 - abs_x;
    const double a = y + kHp1;
    const double da = (y - a) + kHp1;
    return {std::copysign(do_cos(a, da), x), do_sin(a, da)};
  }
  if (!(abs_x < std::bit_cast<double>(0x7ff0000000000000ULL))) {
    return {x / x, x / x};  // inf, NaN
  }
  double a = 0.0;
  double da = 0.0;
  const unsigned n =
      abs_x < kReduceMax ? reduce_sincos(x, a, da) : branred(x, a, da);
  // Quadrants 1 and 2 negate the reduced argument, odd ones swap sin and
  // cos, and quadrants 2 and 3 negate the cos-series result.
  if (n == 1 || n == 2) {
    a = -a;
    da = -da;
  }
  const double sin_part = do_sin(a, da);
  double cos_part = do_cos(a, da);
  if ((n & 2U) != 0) cos_part = -cos_part;
  if ((n & 1U) != 0) return {cos_part, sin_part};
  return {sin_part, cos_part};
}

}  // namespace explora::detmath
